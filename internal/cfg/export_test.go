package cfg

import "satbelim/internal/bytecode"

// SetBuildHook makes every Build call report its method to f (nil: to
// nobody). Tests that set it must not run in parallel.
func SetBuildHook(f func(*bytecode.Method)) { buildHook = f }
