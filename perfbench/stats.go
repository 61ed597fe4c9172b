package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median of float samples.
func medianf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func meanMS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return msOf(total) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addLatencies reports a latency sample under prefix (op, read): the
// median, which is gated, and the 95th and 99th percentiles, which are
// printed beside it.
func (r *report) addLatencies(prefix string, ds []time.Duration) {
	r.add(prefix+"_p50_ms", msOf(percentile(ds, 50)), "ms", len(ds))
	r.add(prefix+"_p95_ms", msOf(percentile(ds, 95)), "ms", len(ds))
	r.add(prefix+"_p99_ms", msOf(percentile(ds, 99)), "ms", len(ds))
}

// memWindow brackets a timed loop with runtime.MemStats readings.
type memWindow struct{ before runtime.MemStats }

// startMem collects garbage, then snapshots the allocator: the GC before a
// timed loop keeps the previous phase's garbage out of it.
func startMem() *memWindow {
	runtime.GC()
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// stop returns allocations and GC pause time accumulated since startMem.
func (w *memWindow) stop() (mallocs uint64, pause time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - w.before.Mallocs, time.Duration(after.PauseTotalNs - w.before.PauseTotalNs)
}

// liveHeapMB is the live heap after a final GC.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
