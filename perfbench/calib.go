package main

// Host calibration. The benchmark runs on hosts it shares with other
// tenants. For minutes at a time their load makes the same code run up
// to a third slower, while more of the vCPUs' time is stolen; such a
// slowdown spans every round of a run, so no best-of-N within the run
// filters it out. It slows a fixed piece of CPU-bound code too, so each
// run times one between its rounds, and reports its times as they
// would read on a host where that code takes a nominal time.
//
// The loop is the benchmark's own and calls nothing of the repository,
// so no change to the program changes its time. It is timed in the CPU
// time of its own thread, so a CPU taken away by another thread or the
// hypervisor, or a goroutine the program leaves running, does not
// lengthen it; only a slower CPU does.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// calibNominalUS is the loop's best time, summed over two
	// workers, on a quiet 2-vCPU x86-64 host at 2.0 GHz. The scaled
	// times of a run read as that host's.
	calibNominalUS = 16000.0
	// calibIters sizes the loop at about 8 ms per worker there.
	calibIters = 3_000_000
	// calibEvery spaces the calibrations of a run: one before the
	// set-ups, then one before each round (and each surface of a sim
	// round) at least this long after the last.
	calibEvery = 200 * time.Millisecond
)

var calibSink atomic.Uint64

// calibLoop is the fixed work: an xorshift generator feeding a
// multiply-accumulate. It touches no memory beyond registers.
func calibLoop() uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * 0x9E3779B97F4A7C15 >> (i & 7)
	}
	return acc
}

// calibTime runs the loop once on each of workers goroutines at once,
// each locked to its thread, and returns their thread CPU times
// summed, in µs: every CPU the workers use is sampled.
func calibTime(workers int) float64 {
	var wg sync.WaitGroup
	ns := make([]int64, workers)
	for k := range ns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			calibSink.Add(calibLoop())
			ns[k] = threadCPU() - c0
		}(k)
	}
	wg.Wait()
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / 1e3
}

// calibrate times the loop if calibEvery has passed since the last
// time, and keeps its best time of the run.
func (e *env) calibrate() {
	if !e.calibAt.IsZero() && time.Since(e.calibAt) < calibEvery {
		return
	}
	t0 := time.Now()
	us := calibTime(e.workers) * 2 / float64(e.workers)
	e.calibAt = time.Now()
	e.calibSpent += e.calibAt.Sub(t0)
	if e.calibUS == 0 || us < e.calibUS {
		e.calibUS = us
	}
}

// hostFactor is what the run's measured times are multiplied by to
// read as the nominal host's: nominal over the run's best loop time.
func (e *env) hostFactor() float64 { return calibNominalUS / e.calibUS }
