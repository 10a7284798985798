package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest percentile of n samples that still
// has at least ten samples beyond it, and 0 when n is too small for any.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0
	}
	return 1 - 10/float64(n)
}

// cpuTime is the process's user+system CPU time, which includes garbage
// collection running on the second core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounter reads the cumulative heap allocation counters and the
// collector's CPU time without stopping the world.
type allocCounter struct{ s [3]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	a.s[2].Name = "/cpu/classes/gc/total:cpu-seconds"
	return a
}

func (a *allocCounter) read() (objects, bytes uint64, gcSeconds float64) {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64(), a.s[2].Value.Float64()
}

// hash64 is FNV-1a over 64-bit words, for result fingerprints.
type hash64 uint64

func newHash() *hash64 { h := hash64(14695981039346656037); return &h }

func (h *hash64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ hash64(byte(v>>(8*i)))) * 1099511628211
	}
}

func (h *hash64) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ hash64(c)) * 1099511628211
	}
}

func (h *hash64) sum() uint64 { return uint64(*h) }
