package core

// SetReuseHook installs f as testHookReuse for the package's external
// tests; nil removes it.
func SetReuseHook(f func(c Component, reused bool)) { testHookReuse = f }
