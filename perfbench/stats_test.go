package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {0.99, 3.97}, {1, 4},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one sample = %v, want 5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of an empty sample should be NaN")
	}
}

func TestMeanRMSAndSeconds(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := rms([]float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("rms = %v, want sqrt(12.5)", got)
	}
	if !math.IsNaN(mean(nil)) || !math.IsNaN(rms(nil)) {
		t.Errorf("mean and rms of an empty sample should be NaN")
	}
	got := seconds([]time.Duration{1500 * time.Millisecond, time.Microsecond})
	if got[0] != 1.5 || got[1] != 1e-6 {
		t.Errorf("seconds = %v", got)
	}
}
