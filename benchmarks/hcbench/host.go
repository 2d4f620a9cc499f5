package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// mix64 is the splitmix64 finalizer. Every generated input is
// mix64 of (seed, stream, index), so the input sequence is a pure function
// of the seed and the op index, whatever order the slices run in.
func mix64(seed, stream, idx uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1) + 0xbf58476d1ce4e5b9*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Streams keep the workloads' draws from one seed independent.
const (
	streamEval = iota
	streamSweep
	streamServe
	streamCkpt
)

// cpuTime returns the process's user+system CPU time, GC included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// The two host kernels do a fixed amount of work and are timed once per
// round. They normalise nothing: they let a reader tell a loud host (the
// memory kernel drifts with neighbours' cache and bandwidth use, the ALU
// kernel barely moves) from a slow program.
const (
	calibALUSteps = 5_000_000
	calibMemReads = 500_000
	calibMemWords = 32 << 20 / 8 // 32 MiB of uint64
)

var calibSink uint64

// calibALU times calibALUSteps dependent xorshift steps.
func calibALU() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(t0)
}

// calibMem times calibMemReads dependent random reads over calibBuf, far
// more words than any cache holds.
func calibMem() time.Duration {
	buf := calibBuf()
	t0 := time.Now()
	i := uint64(0)
	for n := 0; n < calibMemReads; n++ {
		i = buf[i]
	}
	calibSink += i
	return time.Since(t0)
}

// calibBuf is the memory kernel's buffer: one random cycle over its indices
// (Sattolo's algorithm), so following buf[i] visits every word. It is built
// once per process, on first use.
var calibBuf = sync.OnceValue(func() []uint64 {
	buf := make([]uint64, calibMemWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	for i := len(buf) - 1; i > 0; i-- {
		j := mix64(1, 99, uint64(i)) % uint64(i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
})

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of vs (0 when empty) without reordering it.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
