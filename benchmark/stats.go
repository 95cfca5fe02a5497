package main

import (
	"syscall"
	"time"

	"relm/internal/stats"
)

// blockRate is units of work per second as the median over consecutive
// blocks of completions: each block of k completions gives the work it
// holds ÷ the time it took. A burst of steal time on the shared host slows
// one block, not the reported rate, and the value is not quantised to whole
// events per window. times must be ascending, work[i] is what completion i
// carried, start is when the first block began. About twenty blocks are
// cut; with too few completions it falls back to the plain rate.
func blockRate(times []time.Time, work []float64, start time.Time) float64 {
	if len(times) == 0 {
		return 0
	}
	k := max(10, len(times)/20)
	var rates []float64
	var total, inBlock float64
	prev := start
	for i, t := range times {
		total += work[i]
		inBlock += work[i]
		if (i+1)%k == 0 {
			if d := t.Sub(prev).Seconds(); d > 0 {
				rates = append(rates, inBlock/d)
			}
			prev, inBlock = t, 0
		}
	}
	if len(rates) < 3 {
		if d := times[len(times)-1].Sub(start).Seconds(); d > 0 {
			return total / d
		}
		return 0
	}
	return stats.Median(rates)
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// processCPU is the process's user+system CPU time so far; peakRSSMB its
// high-water resident set (Linux reports ru_maxrss in KiB).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// threadCPU is the calling OS thread's CPU time; callers pin the goroutine
// to its thread around the interval they measure.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}
