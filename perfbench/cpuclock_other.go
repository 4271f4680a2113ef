//go:build !linux

package main

import "time"

var clockStart = time.Now()

// threadCPU stands in for the calling thread's CPU time where there is
// no per-thread CPU clock: the wall clock, in ns.
func threadCPU() int64 { return int64(time.Since(clockStart)) }
