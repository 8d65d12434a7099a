package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs, or the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// upperTail returns the highest-ranked sample that still has ten samples
// above it, capped at the 90th percentile, together with the percentile
// it is. From 100 samples on that is the 90th percentile; below 100 it
// is the highest percentile that has ten samples beyond it.
func upperTail(xs []float64) (v, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(0.9*float64(n))) - 1
	if idx > n-11 {
		idx = n - 11
	}
	if idx < 0 {
		idx = n - 1
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeStats is a snapshot of the Go runtime counters the benchmark
// reads.
type runtimeStats struct {
	allocBytes uint64 // cumulative heap bytes allocated
	gcCycles   uint64 // completed GC cycles
	liveBytes  uint64 // heap bytes marked live by the last GC
}

var runtimeMetricNames = [...]string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func readRuntime() runtimeStats {
	var s [len(runtimeMetricNames)]metrics.Sample
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		liveBytes:  s[2].Value.Uint64(),
	}
}

// cpuTime returns the process's user plus system CPU time, every thread
// included (worker pool, HTTP server, client and the collector).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
