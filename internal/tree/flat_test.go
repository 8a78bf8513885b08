package tree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/vec"
)

// The flat SoA kernels replay the recursive traversal's exact reduction
// tree (PUSH/POP interaction-list markers), so their accelerations,
// potentials, Stats, and per-node Load counters must be bit-identical to
// the pointer-chasing AccelAll/PotentialAll — not approximately equal.

func flatVsPointerAccel(t *testing.T, ps []dist.Particle, domain vec.Box, alpha, eps float64, leafCap int) {
	t.Helper()
	flatVsPointerQuery(t, ps, ps, domain, alpha, eps, leafCap)
}

// flatVsPointerQuery builds both trees from ps and evaluates query
// against them, which need not be the trees' own particles.
func flatVsPointerQuery(t *testing.T, ps, query []dist.Particle, domain vec.Box, alpha, eps float64, leafCap int) []vec.V3 {
	t.Helper()
	ptrTree := BuildKeyed(ps, domain, leafCap)
	wantAcc, wantStats := ptrTree.AccelAll(query, alpha, eps)
	wantLoads := collectLoads(ptrTree)

	flatTree := BuildKeyed(ps, domain, leafCap)
	f := Flatten(flatTree, nil)
	gotAcc, gotStats := f.AccelAll(query, alpha, eps)
	gotLoads := collectLoads(flatTree)

	if gotStats != wantStats {
		t.Fatalf("stats differ: flat %+v pointer %+v", gotStats, wantStats)
	}
	sameAccels(t, gotAcc, wantAcc, "flat vs pointer")
	if len(gotLoads) != len(wantLoads) {
		t.Fatalf("load vector length: %d vs %d", len(gotLoads), len(wantLoads))
	}
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			t.Fatalf("load %d differs: flat %d pointer %d", i, gotLoads[i], wantLoads[i])
		}
	}
	return gotAcc
}

// sameAccels fails unless got and want are equal bit for bit, so +0 and
// −0 count as different.
func sameAccels(t *testing.T, got, want []vec.V3, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accelerations, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
			math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) ||
			math.Float64bits(got[i].Z) != math.Float64bits(want[i].Z) {
			t.Fatalf("%s: accel %d differs: %v vs %v", what, i, got[i], want[i])
		}
	}
}

func TestFlatAccelMatchesPointer(t *testing.T) {
	for _, name := range []string{"plummer", "g", "uniform", "s_1g_a"} {
		t.Run(name, func(t *testing.T) {
			s := dist.MustNamed(name, 3000, 61)
			for _, alpha := range []float64{0.3, 0.67, 1.2} {
				flatVsPointerAccel(t, s.Particles, s.Domain, alpha, 0.01, 8)
			}
		})
	}
	s := dist.MustNamed("plummer", 3000, 61)
	t.Run("shuffled", func(t *testing.T) {
		// The sweep runs in the tree's leaf order; results must still land
		// at the query's own indices.
		shuffled := append([]dist.Particle(nil), s.Particles...)
		rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if Flatten(BuildKeyed(s.Particles, s.Domain, 8), nil).sweepOrder(shuffled) == nil {
			t.Fatal("a permutation of the tree's particles should sweep in leaf order")
		}
		got := flatVsPointerQuery(t, s.Particles, shuffled, s.Domain, 0.67, 0.01, 8)
		inOrder := flatVsPointerQuery(t, s.Particles, s.Particles, s.Domain, 0.67, 0.01, 8)
		back := make([]vec.V3, len(got))
		for i, p := range shuffled {
			back[p.ID] = got[i]
		}
		sameAccels(t, back, inOrder, "shuffled query realigned")
	})
	t.Run("foreign-query", func(t *testing.T) {
		// Queries that are not the tree's particle set take the input
		// order: a subset, field points, and a same-size set whose IDs
		// do not match the tree's.
		subset := s.Particles[:1000]
		flatVsPointerQuery(t, s.Particles, subset, s.Domain, 0.67, 0.01, 8)
		field := dist.MustNamed("uniform", 500, 9).Particles
		for i := range field {
			field[i].ID = -1
		}
		flatVsPointerQuery(t, s.Particles, field, s.Domain, 0.67, 0.01, 8)
		renamed := append([]dist.Particle(nil), s.Particles...)
		for i := range renamed {
			renamed[i].ID += 7
		}
		flatVsPointerQuery(t, s.Particles, renamed, s.Domain, 0.67, 0.01, 8)
		f := Flatten(BuildKeyed(s.Particles, s.Domain, 8), nil)
		for _, q := range [][]dist.Particle{subset, field, renamed} {
			if f.sweepOrder(q) != nil {
				t.Fatal("a query that is not the tree's particle set should sweep in input order")
			}
		}
	})
	t.Run("coincident-group", func(t *testing.T) {
		// A leaf group of coincident particles with zero softening: every
		// pair inside it takes the r2 == 0 signed-zero path.
		ps := append([]dist.Particle(nil), dist.MustNamed("plummer", 400, 3).Particles...)
		at := ps[0].Pos
		for i := 0; i < 12; i++ {
			ps = append(ps, dist.Particle{ID: len(ps), Mass: 0.01, Pos: at})
		}
		flatVsPointerAccel(t, ps, dist.MustNamed("plummer", 400, 3).Domain, 0.67, 0, 8)
	})
}

func TestFlatAccelSmallAndDegenerate(t *testing.T) {
	domain := vec.Box{Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}}
	t.Run("single", func(t *testing.T) {
		ps := []dist.Particle{{ID: 0, Mass: 2, Pos: vec.V3{X: 0.25}}}
		flatVsPointerAccel(t, ps, domain, 0.67, 0.01, 8)
	})
	t.Run("root-leaf", func(t *testing.T) {
		// n ≤ leafCap: the whole tree is one leaf, the rootLeaf kernel path.
		ps := make([]dist.Particle, 6)
		for i := range ps {
			ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: float64(i) * 0.1, Y: -0.3}}
		}
		flatVsPointerAccel(t, ps, domain, 0.67, 0.01, 8)
	})
	t.Run("coincident", func(t *testing.T) {
		ps := make([]dist.Particle, 20)
		for i := range ps {
			ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}}
		}
		flatVsPointerAccel(t, ps, domain, 0.67, 0.01, 4)
	})
}

func TestFlatAccelRootPC(t *testing.T) {
	// A tight far cluster plus one distant probe: with a generous alpha
	// the probe accepts the root cell outright — the rootPC kernel path.
	domain := vec.Box{Min: vec.V3{X: -100, Y: -100, Z: -100}, Max: vec.V3{X: 100, Y: 100, Z: 100}}
	var ps []dist.Particle
	for i := 0; i < 30; i++ {
		ps = append(ps, dist.Particle{ID: i, Mass: 1, Pos: vec.V3{
			X: -90 + 0.01*float64(i%5), Y: -90 + 0.01*float64(i/5), Z: -90}})
	}
	ps = append(ps, dist.Particle{ID: 30, Mass: 1, Pos: vec.V3{X: 95, Y: 95, Z: 95}})
	flatVsPointerAccel(t, ps, domain, 5.0, 0.01, 4)

	// Signed zeros: with the cluster on the X = 0 plane and the probe a
	// subnormal away from it, the probe's X term underflows to −0, which
	// the root's cluster term must return as is, not added onto a +0 sum.
	for i := 0; i < 30; i++ {
		ps[i].Pos.X = 0
	}
	ps[30].Pos = vec.V3{X: 1e-320, Y: 95, Z: 95}
	got := flatVsPointerQuery(t, ps, ps, domain, 5.0, 0.01, 4)
	if !math.Signbit(got[30].X) {
		t.Fatalf("probe's X acceleration %v lost its sign", got[30].X)
	}
}

func TestFlatPotentialMatchesPointer(t *testing.T) {
	s := dist.MustNamed("plummer", 2500, 23)
	for _, degree := range []int{0, 2, 4} {
		ptrTree := BuildKeyed(s.Particles, s.Domain, 8)
		ptrTree.BuildExpansions(degree)
		wantPot, wantStats := ptrTree.PotentialAll(s.Particles, 0.67)
		wantLoads := collectLoads(ptrTree)

		flatTree := BuildKeyed(s.Particles, s.Domain, 8)
		flatTree.BuildExpansions(degree)
		f := Flatten(flatTree, nil)
		gotPot, gotStats := f.PotentialAll(s.Particles, 0.67)
		gotLoads := collectLoads(flatTree)

		if gotStats != wantStats {
			t.Fatalf("degree %d: stats differ: flat %+v pointer %+v", degree, gotStats, wantStats)
		}
		for i := range wantPot {
			if math.Float64bits(gotPot[i]) != math.Float64bits(wantPot[i]) {
				t.Fatalf("degree %d: potential %d differs: flat %v pointer %v", degree, i, gotPot[i], wantPot[i])
			}
		}
		for i := range wantLoads {
			if gotLoads[i] != wantLoads[i] {
				t.Fatalf("degree %d: load %d differs", degree, i)
			}
		}
	}
}

func TestFlatParallelMatchesSerial(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	s := dist.MustNamed("plummer", 4000, 61)

	serialTree := BuildKeyed(s.Particles, s.Domain, 8)
	fs := Flatten(serialTree, nil)
	prev := compute.SetMaxWorkers(1)
	wantAcc, wantStats := fs.AccelAll(s.Particles, 0.67, 0.01)
	compute.SetMaxWorkers(prev)
	wantLoads := collectLoads(serialTree)

	parTree := BuildKeyed(s.Particles, s.Domain, 8)
	fp := Flatten(parTree, nil)
	if w := compute.Workers(len(s.Particles)); w < 2 {
		t.Fatalf("expected multiple workers, got %d", w)
	}
	gotAcc, gotStats := fp.AccelAll(s.Particles, 0.67, 0.01)
	gotLoads := collectLoads(parTree)

	if gotStats != wantStats {
		t.Fatalf("stats differ: parallel %+v serial %+v", gotStats, wantStats)
	}
	sameAccels(t, gotAcc, wantAcc, "parallel vs serial")
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			t.Fatalf("load %d differs: parallel %d serial %d", i, gotLoads[i], wantLoads[i])
		}
	}
}

func TestFlattenReuse(t *testing.T) {
	// Reusing a FlatTree across rebuilds (the per-step pattern in
	// SerialSim) must give the same answers as a fresh flatten, and the
	// MAC thresholds it caches must follow both Flatten and α.
	s := dist.MustNamed("g", 1500, 7)
	tr := BuildKeyed(s.Particles, s.Domain, 8)
	f := Flatten(tr, nil)
	f.AccelAll(s.Particles, 0.67, 0.01)

	small := s.Particles[:200]
	tr2 := BuildKeyed(small, s.Domain, 8)
	f = Flatten(tr2, f) // shrinking reuse
	for _, alpha := range []float64{0.67, 1.0, 0.67} {
		gotAcc, gotStats := f.AccelAll(small, alpha, 0.01)
		ref := BuildKeyed(small, s.Domain, 8)
		wantAcc, wantStats := Flatten(ref, nil).AccelAll(small, alpha, 0.01)
		if gotStats != wantStats {
			t.Fatalf("alpha %g: stats differ after reuse: %+v vs %+v", alpha, gotStats, wantStats)
		}
		sameAccels(t, gotAcc, wantAcc, fmt.Sprintf("alpha %g after reuse", alpha))
	}
}

// macValues are the n2, side and α values the threshold must handle:
// zeros, subnormals, the ordinary range, the extremes and the non-finite.
var macValues = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308,
	1e-160, 1e-100, 1e-3, 0.3, 0.67, 1, 1.2, 5, 3.7e5, 1e100, 1e160, 1e200,
	math.MaxFloat64, math.Inf(1), math.NaN(), -1, -1e-300, math.Inf(-1),
}

// checkMACThreshold asserts n2 >= thr ⇔ the sqrt-and-divide MAC for n2,
// for the threshold itself and its neighbours too.
func checkMACThreshold(t *testing.T, n2, side, alpha float64) {
	t.Helper()
	thr := macThreshold(side, alpha)
	probe := []float64{n2, thr, math.Nextafter(thr, math.Inf(-1)), math.Nextafter(thr, math.Inf(1))}
	for _, x := range probe {
		if got, want := x >= thr, macAccepts(x, side, alpha); got != want {
			t.Fatalf("side %g alpha %g: n2 %g >= thr %g is %v, sqrt MAC says %v", side, alpha, x, thr, got, want)
		}
	}
}

func TestFlatMACThreshold(t *testing.T) {
	for _, side := range macValues {
		if side < 0 {
			continue // a box side is never negative
		}
		for _, alpha := range macValues {
			for _, n2 := range macValues {
				checkMACThreshold(t, n2, side, alpha)
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		side := math.Ldexp(rng.Float64(), rng.Intn(40)-20)
		alpha := math.Ldexp(rng.Float64(), rng.Intn(8)-4)
		n2 := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		checkMACThreshold(t, n2, side, alpha)
	}
	// macAccepts is Accepts, bit for bit, on real nodes and points.
	s := dist.MustNamed("plummer", 2000, 4)
	tr := BuildKeyed(s.Particles, s.Domain, 8)
	probes := dist.MustNamed("uniform", 200, 5).Particles
	tr.Walk(func(n *Node) bool {
		for _, p := range probes {
			for _, alpha := range []float64{0.3, 0.67, 1.2} {
				if Accepts(n, p.Pos, alpha) != macAccepts(p.Pos.Dist2(n.COM), n.Box.LongestSide(), alpha) {
					t.Fatalf("macAccepts differs from Accepts at %v, alpha %g", p.Pos, alpha)
				}
			}
		}
		return true
	})
}

func FuzzFlatMACThreshold(f *testing.F) {
	for _, v := range macValues {
		f.Add(v, math.Abs(v), 0.67)
		f.Add(1.0, math.Abs(v), v)
	}
	f.Fuzz(func(t *testing.T, n2, side, alpha float64) {
		checkMACThreshold(t, n2, math.Abs(side), alpha)
	})
}
