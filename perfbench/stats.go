package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two closest ranks (the "type 7" definition used
// by numpy and R). It returns NaN for an empty sample and leaves xs
// unmodified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean (NaN for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rms returns the root mean square (NaN for an empty sample).
func rms(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// latencyQuantile is the quantile of the units' durations that the
// host-clock latencies report. The host's neighbours slow it for seconds to
// minutes at a time and never speed it up, so the fast end of a run's
// durations is its least disturbed speed, which is what a change to the
// program moves; README.md ("Host clock") has the measurements.
const latencyQuantile = 0.1

// timeLoop calls fn until at least secs seconds have passed and fn has
// run minCalls times. fn times its own unit of work, so bookkeeping it
// does after the work stays out of the figure; timeLoop returns those
// durations.
func timeLoop(secs float64, minCalls int, fn func() time.Duration) []time.Duration {
	var ds []time.Duration
	start := time.Now()
	limit := time.Duration(secs * float64(time.Second))
	for len(ds) < minCalls || time.Since(start) < limit {
		ds = append(ds, fn())
	}
	return ds
}

// alternate is timeLoop over fn(true) and fn(false) in turn, each at
// least minCalls times; it returns the two sets of durations. Taking the
// traced and untraced samples interleaved keeps drift in the host's
// speed out of their ratio.
func alternate(secs float64, minCalls int, fn func(on bool) time.Duration) (on, off []time.Duration) {
	timeLoop(secs, 2*minCalls, func() time.Duration {
		if len(on) == len(off) {
			d := fn(true)
			on = append(on, d)
			return d
		}
		d := fn(false)
		off = append(off, d)
		return d
	})
	return on, off
}

// timed returns how long fn takes.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
