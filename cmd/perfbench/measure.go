package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is one timed region.
type sample struct {
	wall    float64 // seconds
	cpu     float64 // user+sys seconds of this process and its reaped children
	allocMB float64 // Go heap MB allocated by this process
	mallocs float64
}

// timed runs fn as one timed region: a GC first so no earlier garbage is
// collected inside it, then wall, CPU and allocation deltas. fn reports its
// own wall time when it must exclude a tail from it (multiproc reaping);
// a zero return means "time the whole call".
func timed(fn func() (time.Duration, error)) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	wall, err := fn()
	if wall == 0 {
		wall = time.Since(start)
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:    wall.Seconds(),
		cpu:     cpu1 - cpu0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
	}, err
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func cpuSeconds() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // nor for RUSAGE_CHILDREN
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB is the larger of this process's peak RSS and that of its largest
// reaped child (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
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

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// medianIndex returns the index of the sample with the median wall time
// (the lower middle one for an even count).
func medianIndex(ss []sample) int {
	idx := make([]int, len(ss))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ss[idx[a]].wall < ss[idx[b]].wall })
	return idx[(len(idx)-1)/2]
}
