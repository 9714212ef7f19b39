package bb

// SetBuildHook installs f as testHookBuild for the package's external
// tests; nil removes it.
func SetBuildHook(f func(decoded bool)) { testHookBuild = f }
