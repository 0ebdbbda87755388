package main

import "time"

// epoch anchors clock. These two lines are the benchmark's only
// wall-clock reads: measuring host time is its purpose, and every time
// it reports is a difference of clock readings.
var epoch = time.Now() // dsnlint:ok walltime the benchmark measures host time

// clock returns the monotonic host time elapsed since the process
// started.
func clock() time.Duration {
	return time.Since(epoch) // dsnlint:ok walltime the benchmark measures host time
}
