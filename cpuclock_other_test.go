//go:build !linux && !race

package facile_test

import "time"

var clockStart = time.Now()

// threadCPUTime falls back to the monotonic wall clock where no per-thread
// CPU clock is read, so time spent waiting for a CPU is counted.
func threadCPUTime() time.Duration { return time.Since(clockStart) }
