//go:build !unix

package project

import "time"

// cpuTime is unavailable here; BenchmarkProject then reports no
// cpu-ms/op.
func cpuTime() time.Duration { return 0 }
