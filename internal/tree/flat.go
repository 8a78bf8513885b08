package tree

import (
	"math"
	"math/bits"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/vec"
)

// FlatTree is a structure-of-arrays linearization of a Tree in DFS
// (Morton) order: one column per per-node quantity plus skip pointers,
// and the leaf particles transposed into dist.Particles columns in leaf
// order. Traversals walk contiguous arrays instead of chasing ~200-byte
// Node records, and the MAC is one compare against a per-node threshold.
//
// The kernels produce results bit-identical to the pointer traversals
// (Tree.AccelAll / Tree.PotentialAll): each particle visits exactly the
// nodes of its DFS walk, in order, and its own stack of partial sums
// replays the recursion's hierarchical summation order, because
// floating-point addition is not associative — a flat left-to-right
// accumulation over the same contributions would round differently.
//
// A FlatTree snapshots the Tree at Flatten time; rebuild or refresh the
// tree and Flatten again before the next sweep. Load counters are
// written back to the underlying *Node records. At most one sweep may
// run at a time (matching the Tree traversals, which share Load state).
type FlatTree struct {
	t     *Tree
	nodes []*Node

	comX, comY, comZ []float64
	mass             []float64
	skip             []int32 // index just past node i's subtree
	leafLo, leafHi   []int32 // leaf particle range in cols; -1 for internal
	exps             []*phys.Expansion

	cols dist.Particles // leaf particles, transposed, DFS leaf order

	// thr[i] is internal node i's MAC threshold for α = thrAlpha: a
	// point at squared distance n2 from the node's COM accepts it iff
	// n2 >= thr[i] (see macThreshold). Flatten invalidates it.
	thr      []float64
	thrAlpha uint64
	thrOK    bool

	byID []int32 // sweep scratch: ps index of each particle ID

	scratch []flatScratch // per-worker sweep state, reused across sweeps
}

// listEntry is one step of a gathered interaction list. b >= 0 encodes a
// leaf particle range cols[a:b); negative b values are the marker kinds
// below with a as the node index.
type listEntry struct{ a, b int32 }

const (
	entryPC   int32 = -1 // particle–cluster interaction with node a
	entryPush int32 = -2 // open node a: start a nested partial sum
	entryPop  int32 = -3 // close the innermost open node
)

// Root dispositions returned by gather; the root's value is the
// traversal result itself, never added into an enclosing accumulator.
const (
	rootOpen int8 = iota
	rootLeaf
	rootPC
)

// groupSize is how many particles share one tree walk in AccelAll; a
// uint8 bitmask records which of them take part at each node.
const groupSize = 8

// particleGroup is the input of one group walk: up to groupSize query
// particles and the indices their results are written to.
type particleGroup struct {
	n       int
	x, y, z [groupSize]float64
	id      [groupSize]int32
	dst     [groupSize]int32
}

// groupFrame is one opened node of a group walk: the particles that
// opened it, the particles active around it, and the openers' partial
// sums saved at the push.
type groupFrame struct {
	end         int32 // skip index closing the node's subtree
	open, outer uint8
	x, y, z     [groupSize]float64
}

type flatScratch struct {
	loads  []int64
	frames []groupFrame
	list   []listEntry
	ends   []int32
}

func (sc *flatScratch) resetLoads(n int) {
	if cap(sc.loads) < n {
		sc.loads = make([]int64, n)
		return
	}
	sc.loads = sc.loads[:n]
	clear(sc.loads)
}

// Flatten linearizes t, reusing reuse's buffers when non-nil (pass the
// previous step's FlatTree to amortize the column allocations).
func Flatten(t *Tree, reuse *FlatTree) *FlatTree {
	f := reuse
	if f == nil {
		f = &FlatTree{}
	}
	f.t = t
	f.nodes = f.nodes[:0]
	f.comX, f.comY, f.comZ = f.comX[:0], f.comY[:0], f.comZ[:0]
	f.mass = f.mass[:0]
	f.skip = f.skip[:0]
	f.leafLo, f.leafHi = f.leafLo[:0], f.leafHi[:0]
	f.exps = f.exps[:0]
	f.cols.Reset()
	f.thrOK = false
	f.flatten(t.Root)
	return f
}

// Tree returns the tree this FlatTree linearizes.
func (f *FlatTree) Tree() *Tree { return f.t }

// NumNodes returns the number of linearized nodes.
func (f *FlatTree) NumNodes() int { return len(f.nodes) }

func (f *FlatTree) flatten(n *Node) {
	idx := len(f.nodes)
	f.nodes = append(f.nodes, n)
	f.comX = append(f.comX, n.COM.X)
	f.comY = append(f.comY, n.COM.Y)
	f.comZ = append(f.comZ, n.COM.Z)
	f.mass = append(f.mass, n.Mass)
	f.exps = append(f.exps, n.Exp)
	f.skip = append(f.skip, 0)
	if n.IsLeaf() {
		lo := int32(f.cols.Len())
		f.cols.Append(n.Particles)
		f.leafLo = append(f.leafLo, lo)
		f.leafHi = append(f.leafHi, int32(f.cols.Len()))
	} else {
		f.leafLo = append(f.leafLo, -1)
		f.leafHi = append(f.leafHi, -1)
		for _, c := range n.Children {
			if c != nil {
				f.flatten(c)
			}
		}
	}
	f.skip[idx] = int32(len(f.nodes))
}

// macAccepts is Accepts evaluated from the squared distance n2 between
// the point and the node's COM, bit for bit.
func macAccepts(n2, side, alpha float64) bool {
	d := math.Sqrt(n2)
	return d != 0 && side/d < alpha
}

// macThreshold returns the least float64 t such that macAccepts(t, side,
// alpha) holds, so that macAccepts(n2, side, alpha) ⇔ n2 >= t for every
// float64 n2, including 0, +Inf and NaN. When no n2 is accepted it
// returns NaN, which every comparison rejects. side must not be negative
// (it is a box side length).
//
// The threshold is exact because the test is monotone in n2: sqrt is
// correctly rounded, hence non-decreasing, and side/d is non-increasing
// in d for side >= 0. So the accepted n2 form an upward-closed set, and
// stepping ulps from the estimate (side/α)² finds its least element in a
// few tries; a bisection over the float64 bit patterns backs it up.
func macThreshold(side, alpha float64) float64 {
	inf := math.Inf(1)
	if !macAccepts(inf, side, alpha) {
		return math.NaN()
	}
	t := side / alpha
	t *= t
	if !(t > 0) {
		t = math.SmallestNonzeroFloat64
	}
	const steps = 8
	if macAccepts(t, side, alpha) {
		for i := 0; i < steps; i++ {
			p := math.Nextafter(t, 0)
			if p == 0 || !macAccepts(p, side, alpha) {
				return t
			}
			t = p
		}
	} else {
		for i := 0; i < steps; i++ {
			t = math.Nextafter(t, inf)
			if macAccepts(t, side, alpha) {
				return t
			}
		}
	}
	// Non-negative float64 values order like their bit patterns.
	lo, hi := uint64(0), math.Float64bits(inf) // rejects, accepts
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if macAccepts(math.Float64frombits(mid), side, alpha) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// thresholds fills thr for alpha unless it already holds them for this
// Flatten.
func (f *FlatTree) thresholds(alpha float64) {
	if f.thrOK && f.thrAlpha == math.Float64bits(alpha) {
		return
	}
	f.thr = f.thr[:0]
	for i, n := range f.nodes {
		t := math.NaN()
		if f.leafLo[i] < 0 {
			t = macThreshold(n.Box.LongestSide(), alpha)
		}
		f.thr = append(f.thr, t)
	}
	f.thrAlpha, f.thrOK = math.Float64bits(alpha), true
}

// sweepOrder reports how the sweep visits ps. When ps holds exactly the
// particles of the tree (IDs 0..len(ps)-1, each once) it returns the ps
// index of every ID, and the sweep follows the tree's leaf order, so
// consecutive query particles are spatial neighbours whose walks share
// nodes. Otherwise it returns nil and the sweep follows the input order.
func (f *FlatTree) sweepOrder(ps []dist.Particle) []int32 {
	n := len(ps)
	if f.cols.Len() != n || n > math.MaxInt32 {
		return nil
	}
	if cap(f.byID) < n {
		f.byID = make([]int32, n)
	}
	byID := f.byID[:n]
	for i := range byID {
		byID[i] = -1
	}
	for i := range ps {
		id := ps[i].ID
		if id < 0 || id >= n || byID[id] >= 0 {
			return nil
		}
		byID[id] = int32(i)
	}
	// Every ID is present once in ps; a duplicate in the leaves would
	// leave some particle unswept. Flip each seen entry, then restore.
	ids := f.cols.ID
	ok := true
	j := 0
	for ; j < n; j++ {
		id := ids[j]
		if id < 0 || int(id) >= n || byID[id] < 0 {
			ok = false
			break
		}
		byID[id] = ^byID[id]
	}
	for _, id := range ids[:j] {
		byID[id] = ^byID[id]
	}
	if !ok {
		return nil
	}
	return byID
}

// sweepIndex maps sweep position j to its index in ps.
func (f *FlatTree) sweepIndex(byID []int32, j int) int {
	if byID == nil {
		return j
	}
	return int(byID[f.cols.ID[j]])
}

// gather walks the flat tree once for pos, recording the interaction
// list (leaf ranges, accepted clusters, and subtree open/close markers)
// in DFS visit order, and charging MAC tests, PC counts, and per-node
// loads exactly as the pointer traversal does. The list is left in
// sc.list; the returned kind tells the evaluator how to treat the root.
func (f *FlatTree) gather(sc *flatScratch, pos vec.V3, s *Stats) int8 {
	list := sc.list[:0]
	loads := sc.loads
	if lo := f.leafLo[0]; lo >= 0 {
		hi := f.leafHi[0]
		loads[0] += int64(hi - lo)
		sc.list = append(list, listEntry{lo, hi})
		return rootLeaf
	}
	s.MACTests++
	if f.dist2(0, pos) >= f.thr[0] {
		s.PC++
		loads[0]++
		sc.list = append(list, listEntry{0, entryPC})
		return rootPC
	}
	ends := sc.ends[:0]
	n := int32(len(f.nodes))
	for i := int32(1); i < n; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			list = append(list, listEntry{0, entryPop})
		}
		if lo := f.leafLo[i]; lo >= 0 {
			hi := f.leafHi[i]
			loads[i] += int64(hi - lo)
			list = append(list, listEntry{lo, hi})
			i = f.skip[i]
			continue
		}
		s.MACTests++
		if f.dist2(i, pos) >= f.thr[i] {
			s.PC++
			loads[i]++
			list = append(list, listEntry{i, entryPC})
			i = f.skip[i]
			continue
		}
		list = append(list, listEntry{i, entryPush})
		ends = append(ends, f.skip[i])
		i++
	}
	for range ends {
		list = append(list, listEntry{0, entryPop})
	}
	sc.list, sc.ends = list, ends[:0]
	return rootOpen
}

// dist2 is the squared distance from pos to node i's COM, summed in
// vec.V3.Norm2's order.
func (f *FlatTree) dist2(i int32, pos vec.V3) float64 {
	dx, dy, dz := f.comX[i]-pos.X, f.comY[i]-pos.Y, f.comZ[i]-pos.Z
	return dx*dx + dy*dy + dz*dz
}

// leafAccel folds cols[lo:hi) into the acceleration at (x, y, z) from a
// zero accumulator in column order — the recursion's per-leaf partial
// sum, phys.Accel term by term — and returns the P-P count.
func (f *FlatTree) leafAccel(lo, hi int32, x, y, z float64, self int32, e2 float64) (ax, ay, az float64, pp int64) {
	ids, px, py, pz, ms := f.cols.ID, f.cols.PosX, f.cols.PosY, f.cols.PosZ, f.cols.Mass
	for j := lo; j < hi; j++ {
		if ids[j] == self {
			continue
		}
		dx, dy, dz := px[j]-x, py[j]-y, pz[j]-z
		r2 := dx*dx + dy*dy + dz*dz + e2
		if r2 != 0 {
			inv := 1 / math.Sqrt(r2)
			g := phys.G * ms[j] * inv * inv * inv
			ax += g * dx
			ay += g * dy
			az += g * dz
		} else {
			// phys.Accel returns a zero vector here; adding it is
			// not a no-op for signed zeros, so add explicitly.
			ax += 0
			ay += 0
			az += 0
		}
		pp++
	}
	return ax, ay, az, pp
}

// accelGroup walks the flat tree once for the particles of g, writing
// each one's acceleration to out[g.dst[k]].
//
// At every node each still-active particle makes its own MAC decision;
// the decisions form a bitmask. Accepting particles fold the cluster
// into their running sums, and the node is opened for the rest, who push
// their sums onto the frame and restart from zero; closing the subtree
// folds each opener's child sum into its saved parent sum. Leaves fold
// one zero-started partial sum per active particle. So every particle
// sees exactly its own DFS walk — the same MAC tests, Load charges and
// reduction tree as the pointer recursion — and only the node reads are
// shared across the group.
//
// The MAC and phys.Accel share one difference vector: Accepts computes
// ‖pos−com‖ while phys.Accel uses com−pos, but squaring erases the sign
// bit-exactly, so the squared norm (summed in vec.V3.Norm2's order)
// serves both, and the accepted-cluster kernel reuses it as phys.Accel's
// d.Norm2() term.
func (f *FlatTree) accelGroup(sc *flatScratch, g *particleGroup, e2 float64, out []vec.V3, s *Stats) {
	loads := sc.loads
	comX, comY, comZ := f.comX, f.comY, f.comZ
	mass, thr, skip := f.mass, f.thr, f.skip
	leafLo, leafHi := f.leafLo, f.leafHi
	var macs, pc, pp int64

	if lo := leafLo[0]; lo >= 0 {
		hi := leafHi[0]
		loads[0] += int64(hi-lo) * int64(g.n)
		for k := 0; k < g.n; k++ {
			ax, ay, az, c := f.leafAccel(lo, hi, g.x[k], g.y[k], g.z[k], g.id[k], e2)
			pp += c
			out[g.dst[k]] = vec.V3{X: ax, Y: ay, Z: az}
		}
		s.PP += pp
		return
	}

	// The root's value is the result itself: an accepted root returns its
	// cluster term, not a sum started from zero.
	var open uint8
	gm0 := phys.G * mass[0]
	for k := 0; k < g.n; k++ {
		dx, dy, dz := comX[0]-g.x[k], comY[0]-g.y[k], comZ[0]-g.z[k]
		n2 := dx*dx + dy*dy + dz*dz
		if n2 >= thr[0] {
			inv := 1 / math.Sqrt(n2+e2) // n2 > 0, so never a zero divide
			gm := gm0 * inv * inv * inv
			out[g.dst[k]] = vec.V3{X: gm * dx, Y: gm * dy, Z: gm * dz}
		} else {
			open |= 1 << k
		}
	}
	accepted := int64(g.n - bits.OnesCount8(open))
	macs += int64(g.n)
	pc += accepted
	loads[0] += accepted

	var tx, ty, tz [groupSize]float64
	root, active := open, open
	frames := sc.frames[:0]
	n := int32(len(skip))
	for i := int32(1); root != 0 && i < n; {
		for len(frames) > 0 && frames[len(frames)-1].end == i {
			fr := &frames[len(frames)-1]
			for b := fr.open; b != 0; b &= b - 1 {
				k := bits.TrailingZeros8(b) & (groupSize - 1)
				tx[k] = fr.x[k] + tx[k]
				ty[k] = fr.y[k] + ty[k]
				tz[k] = fr.z[k] + tz[k]
			}
			active = fr.outer
			frames = frames[:len(frames)-1]
		}
		if lo := leafLo[i]; lo >= 0 {
			hi := leafHi[i]
			loads[i] += int64(hi-lo) * int64(bits.OnesCount8(active))
			for b := active; b != 0; b &= b - 1 {
				k := bits.TrailingZeros8(b) & (groupSize - 1)
				ax, ay, az, c := f.leafAccel(lo, hi, g.x[k], g.y[k], g.z[k], g.id[k], e2)
				pp += c
				tx[k] += ax
				ty[k] += ay
				tz[k] += az
			}
			i = skip[i]
			continue
		}
		cx, cy, cz, t := comX[i], comY[i], comZ[i], thr[i]
		gmi := phys.G * mass[i]
		var opened uint8
		for b := active; b != 0; b &= b - 1 {
			k := bits.TrailingZeros8(b) & (groupSize - 1)
			dx, dy, dz := cx-g.x[k], cy-g.y[k], cz-g.z[k]
			n2 := dx*dx + dy*dy + dz*dz
			if n2 >= t {
				inv := 1 / math.Sqrt(n2+e2)
				gm := gmi * inv * inv * inv
				tx[k] += gm * dx
				ty[k] += gm * dy
				tz[k] += gm * dz
			} else {
				opened |= 1 << k
			}
		}
		tested := int64(bits.OnesCount8(active))
		accepted := tested - int64(bits.OnesCount8(opened))
		macs += tested
		pc += accepted
		loads[i] += accepted
		if opened == 0 {
			i = skip[i]
			continue
		}
		if len(frames) == cap(frames) {
			frames = append(frames, groupFrame{})
		} else {
			frames = frames[:len(frames)+1]
		}
		fr := &frames[len(frames)-1]
		fr.end, fr.open, fr.outer = skip[i], opened, active
		for b := opened; b != 0; b &= b - 1 {
			k := bits.TrailingZeros8(b) & (groupSize - 1)
			fr.x[k], fr.y[k], fr.z[k] = tx[k], ty[k], tz[k]
			tx[k], ty[k], tz[k] = 0, 0, 0
		}
		active = opened
		i++
	}
	for j := len(frames) - 1; j >= 0; j-- {
		fr := &frames[j]
		for b := fr.open; b != 0; b &= b - 1 {
			k := bits.TrailingZeros8(b) & (groupSize - 1)
			tx[k] = fr.x[k] + tx[k]
			ty[k] = fr.y[k] + ty[k]
			tz[k] = fr.z[k] + tz[k]
		}
	}
	for b := root; b != 0; b &= b - 1 {
		k := bits.TrailingZeros8(b) & (groupSize - 1)
		out[g.dst[k]] = vec.V3{X: tx[k], Y: ty[k], Z: tz[k]}
	}
	sc.frames = frames[:0]
	s.MACTests += macs
	s.PC += pc
	s.PP += pp
}

// leafPot mirrors leafAccel for potentials (near-field softening is 0,
// as in the pointer traversal).
func (f *FlatTree) leafPot(lo, hi int32, pos vec.V3, self int32, s *Stats) float64 {
	var phi float64
	ids, px, py, pz, ms := f.cols.ID, f.cols.PosX, f.cols.PosY, f.cols.PosZ, f.cols.Mass
	for j := lo; j < hi; j++ {
		if ids[j] == self {
			continue
		}
		phi += phys.Potential(pos, vec.V3{X: px[j], Y: py[j], Z: pz[j]}, ms[j], 0)
		s.PP++
	}
	return phi
}

// evalPot replays a gathered interaction list for potential mode:
// accepted clusters evaluate their multipole expansion.
func (f *FlatTree) evalPot(sc *flatScratch, kind int8, pos vec.V3, selfID int, s *Stats) float64 {
	self := int32(selfID)
	if kind == rootPC {
		return f.exps[sc.list[0].a].EvalPotential(pos)
	}
	if kind == rootLeaf {
		e := sc.list[0]
		return f.leafPot(e.a, e.b, pos, self, s)
	}
	var top float64
	var stack [MaxDepth + 2]float64
	depth := 0
	for _, e := range sc.list {
		switch {
		case e.b >= 0:
			top += f.leafPot(e.a, e.b, pos, self, s)
		case e.b == entryPC:
			top += f.exps[e.a].EvalPotential(pos)
		case e.b == entryPush:
			stack[depth] = top
			depth++
			top = 0
		default:
			depth--
			top = stack[depth] + top
		}
	}
	return top
}

// sweep runs body over [0, n) in per-worker blocks with zeroed Load
// shards, then merges the shards' Stats and Load counters exactly.
func (f *FlatTree) sweep(n int, body func(sc *flatScratch, lo, hi int, s *Stats)) Stats {
	workers := compute.Workers(n)
	for len(f.scratch) < workers {
		f.scratch = append(f.scratch, flatScratch{})
	}
	shardStats := make([]Stats, workers)
	compute.ParallelBlocks(n, func(w, lo, hi int) {
		sc := &f.scratch[w]
		sc.resetLoads(len(f.nodes))
		body(sc, lo, hi, &shardStats[w])
	})
	var s Stats
	for w := 0; w < workers; w++ {
		s.Add(shardStats[w])
		for j, v := range f.scratch[w].loads {
			if v != 0 {
				f.nodes[j].Load += v
			}
		}
	}
	return s
}

// AccelAll computes accelerations for every particle against the flat
// tree, one walk per group of up to groupSize particles in sweep order
// (see sweepOrder). Results — accelerations, Stats, and per-node Load
// counters — are bit-identical to Tree.AccelAll on the tree this
// FlatTree linearizes, at any worker count.
func (f *FlatTree) AccelAll(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	out := make([]vec.V3, len(ps))
	if len(ps) == 0 {
		return out, Stats{}
	}
	f.thresholds(alpha)
	byID := f.sweepOrder(ps)
	e2 := eps * eps
	groups := (len(ps) + groupSize - 1) / groupSize
	s := f.sweep(groups, func(sc *flatScratch, lo, hi int, s *Stats) {
		var g particleGroup
		for gi := lo; gi < hi; gi++ {
			first := gi * groupSize
			g.n = min(groupSize, len(ps)-first)
			for k := 0; k < g.n; k++ {
				i := f.sweepIndex(byID, first+k)
				p := &ps[i]
				g.x[k], g.y[k], g.z[k] = p.Pos.X, p.Pos.Y, p.Pos.Z
				g.id[k], g.dst[k] = int32(p.ID), int32(i)
			}
			f.accelGroup(sc, &g, e2, out, s)
		}
	})
	return out, s
}

// PotentialAll computes potentials for every particle against the flat
// tree, bit-identical to Tree.PotentialAll. The tree's expansions must
// have been built before Flatten.
func (f *FlatTree) PotentialAll(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	if f.t.Degree < 0 {
		panic("tree: FlatTree.PotentialAll requires BuildExpansions before Flatten")
	}
	out := make([]float64, len(ps))
	if len(ps) == 0 {
		return out, Stats{}
	}
	f.thresholds(alpha)
	byID := f.sweepOrder(ps)
	s := f.sweep(len(ps), func(sc *flatScratch, lo, hi int, s *Stats) {
		for j := lo; j < hi; j++ {
			i := f.sweepIndex(byID, j)
			kind := f.gather(sc, ps[i].Pos, s)
			out[i] = f.evalPot(sc, kind, ps[i].Pos, ps[i].ID, s)
		}
	})
	return out, s
}
