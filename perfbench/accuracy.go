package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/vec"
)

// sampleIndices returns min(k, n) distinct indices in [0, n), chosen by
// a generator seeded with seed, in increasing order.
func sampleIndices(n, k int, seed int64) []int {
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// directAccel is the exact softened acceleration on ps[i] from every
// other particle: the row i of internal/direct.Accels, with the same
// kernel and summation order, so a sample costs O(n) per particle
// instead of the full O(n²).
func directAccel(ps []dist.Particle, i int, eps float64) vec.V3 {
	var a vec.V3
	for j := range ps {
		if i == j {
			continue
		}
		a = a.Add(phys.Accel(ps[i].Pos, ps[j].Pos, ps[j].Mass, eps))
	}
	return a
}

// forceErrors returns, for each sampled index idx[k], the error of
// approx[k] against the exact acceleration from direct summation over
// ps, divided by the rms of the exact accelerations over the sample.
// Normalizing by the sample's rms rather than by each particle's own
// acceleration keeps particles whose pulls nearly cancel from
// dominating; the rms of the result is the usual treecode figure
// sqrt(Σ|Δa|² / Σ|a|²).
func forceErrors(ps []dist.Particle, idx []int, approx []vec.V3, eps float64) []float64 {
	errs := make([]float64, len(idx))
	norms := make([]float64, len(idx))
	compute.ParallelFor(len(idx), func(k int) {
		exact := directAccel(ps, idx[k], eps)
		errs[k] = approx[k].Sub(exact).Norm()
		norms[k] = exact.Norm()
	})
	scale := rms(norms)
	for k := range errs {
		errs[k] /= scale
	}
	return errs
}

// sameBodies reports whether two particle slices are bit-identical.
func sameBodies(a, b []dist.Particle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameBits(a[i].Mass, b[i].Mass) ||
			!sameVec(a[i].Pos, b[i].Pos) || !sameVec(a[i].Vel, b[i].Vel) {
			return false
		}
	}
	return true
}

// sameVecs reports whether two vector slices are bit-identical.
func sameVecs(a, b []vec.V3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVec(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameVec(a, b vec.V3) bool {
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

// sameBits is bit equality: it tells +0 from −0, unlike ==.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
