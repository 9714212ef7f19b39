package core

// SetComponentHook installs f as testHookComponent for the package's
// external tests; nil removes it.
func SetComponentHook(f func(c Component)) { testHookComponent = f }
