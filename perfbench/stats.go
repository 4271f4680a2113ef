package main

import (
	rtmetrics "runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs, interpolating linearly
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSample is the process's cumulative GC and total CPU time.
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// frac is the share of CPU time spent in the garbage collector
// between earlier and c.
func (c cpuSample) frac(earlier cpuSample) float64 {
	return ratio(c.gc-earlier.gc, c.total-earlier.total)
}
