package let

import (
	"math"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Flat is the locally essential tree in structure-of-arrays form: the
// grafted peer sections first, then a DFS linearization of the rank's
// replicated tree (top nodes, local subtrees inlined, remote branch
// cells carrying graft references). Traversal sweeps the main region
// one particle at a time, with the per-particle accumulator stack that
// tree.FlatTree's group walk keeps for each member of a group, and still
// takes the sqrt-and-divide MAC (tree.FlatTree compares against exact
// per-node thresholds instead), deferring remote branches; deferred
// sections are then replayed and folded in defer order — exactly the
// slot order function shipping folds its replies in.
//
// Node kinds. Top and branch summaries have no owner-side tree node, so
// accepted interactions there charge the traversing particle's
// extra-load account (as function shipping does); local and section
// nodes charge per-node Load counters, the section ones flowing back to
// the owner as deltas.
const (
	kTop uint8 = iota
	kLocalInt
	kLocalLeaf
	kBranchInt  // remote branch cell: MAC, defer on reject
	kBranchLeaf // remote leaf-cell branch: always defer, no MAC
	kSecOpen
	kSecClosed // summary-only: MAC must accept, by construction
	kSecLeaf
)

// SecMeta locates one grafted section in the flat arrays.
type SecMeta struct {
	Owner     int
	Key       uint64
	Base, End int32
}

type letScratch struct {
	loads  []int64
	stats  tree.Stats
	acc    []vec.V3
	facc   []float64
	ends   []int32
	defers []int32
}

func (sc *letScratch) resetLoads(n int) {
	if cap(sc.loads) < n {
		sc.loads = make([]int64, n)
		return
	}
	sc.loads = sc.loads[:n]
	for i := range sc.loads {
		sc.loads[i] = 0
	}
}

// Flat is rebuilt (or reused via Reset) every step.
type Flat struct {
	kind             []uint8
	comX, comY, comZ []float64
	mass             []float64
	side             []float64
	skip             []int32
	leafLo, leafHi   []int32
	exps             []*phys.Expansion
	nodeRefs         []*tree.Node // local nodes for Load write-back
	graftLo, graftHi []int32      // per-node range into grafts
	grafts           []int32      // section indices; -1 = owner shipped nothing

	cols     colSet
	sections []SecMeta
	mainRoot int32

	loads   []int64
	scratch []letScratch
}

// colSet is the particle columns the leaf kernels read (local leaves and
// grafted section leaves interleaved in append order).
type colSet struct {
	id             []int32
	px, py, pz, pm []float64
}

func (c *colSet) reset() {
	c.id = c.id[:0]
	c.px, c.py, c.pz = c.px[:0], c.py[:0], c.pz[:0]
	c.pm = c.pm[:0]
}

// Reset clears the structure for a new step, keeping capacity.
func (f *Flat) Reset() {
	f.kind = f.kind[:0]
	f.comX, f.comY, f.comZ = f.comX[:0], f.comY[:0], f.comZ[:0]
	f.mass, f.side, f.skip = f.mass[:0], f.side[:0], f.skip[:0]
	f.leafLo, f.leafHi = f.leafLo[:0], f.leafHi[:0]
	f.exps = f.exps[:0]
	f.nodeRefs = f.nodeRefs[:0]
	f.graftLo, f.graftHi = f.graftLo[:0], f.graftHi[:0]
	f.grafts = f.grafts[:0]
	f.cols.reset()
	f.sections = f.sections[:0]
	f.mainRoot = 0
}

// NumNodes returns the total linearized node count (sections + main).
func (f *Flat) NumNodes() int { return len(f.kind) }

// NumSections returns the number of grafted sections.
func (f *Flat) NumSections() int { return len(f.sections) }

func (f *Flat) push(kind uint8, com vec.V3, mass, side float64, exp *phys.Expansion,
	ref *tree.Node, lo, hi int32) int32 {
	idx := int32(len(f.kind))
	f.kind = append(f.kind, kind)
	f.comX = append(f.comX, com.X)
	f.comY = append(f.comY, com.Y)
	f.comZ = append(f.comZ, com.Z)
	f.mass = append(f.mass, mass)
	f.side = append(f.side, side)
	f.skip = append(f.skip, idx+1)
	f.leafLo = append(f.leafLo, lo)
	f.leafHi = append(f.leafHi, hi)
	f.exps = append(f.exps, exp)
	f.nodeRefs = append(f.nodeRefs, ref)
	f.graftLo = append(f.graftLo, 0)
	f.graftHi = append(f.graftHi, 0)
	return idx
}

// AddSection grafts a decoded section's node columns; exps carries the
// per-node decoded expansions (nil entries for leaves; nil slice in
// force mode). Returns the section index branch nodes reference.
func (f *Flat) AddSection(owner int, sec *Section, exps []*phys.Expansion) int {
	base := int32(len(f.kind))
	pbase := int32(len(f.cols.id))
	for j := range sec.Kind {
		var k uint8
		lo, hi := int32(-1), int32(-1)
		switch sec.Kind[j] {
		case NodeLeaf:
			k = kSecLeaf
			lo, hi = pbase+sec.LeafLo[j], pbase+sec.LeafHi[j]
		case NodeClosed:
			k = kSecClosed
		default:
			k = kSecOpen
		}
		var e *phys.Expansion
		if exps != nil {
			e = exps[j]
		}
		idx := f.push(k, vec.V3{X: sec.ComX[j], Y: sec.ComY[j], Z: sec.ComZ[j]},
			sec.Mass[j], sec.Side[j], e, nil, lo, hi)
		f.skip[idx] = base + sec.Skip[j]
	}
	f.cols.id = append(f.cols.id, sec.PID...)
	f.cols.px = append(f.cols.px, sec.PX...)
	f.cols.py = append(f.cols.py, sec.PY...)
	f.cols.pz = append(f.cols.pz, sec.PZ...)
	f.cols.pm = append(f.cols.pm, sec.PM...)
	f.sections = append(f.sections, SecMeta{Owner: owner, Key: sec.BranchKey, Base: base, End: int32(len(f.kind))})
	return len(f.sections) - 1
}

// BeginMain marks the start of the main sweep region; call after all
// sections are grafted, before flattening the replicated tree.
func (f *Flat) BeginMain() { f.mainRoot = int32(len(f.kind)) }

// AddTop appends a replicated top node; close with CloseInternal after
// its children.
func (f *Flat) AddTop(com vec.V3, mass, side float64, exp *phys.Expansion) int32 {
	return f.push(kTop, com, mass, side, exp, nil, -1, -1)
}

// AddBranch appends a remote branch cell. grafts lists the section index
// per owner, in owner order (-1 when that owner shipped nothing: the MAC
// provably accepts, and the kernels panic if it ever rejects).
func (f *Flat) AddBranch(leafCell bool, com vec.V3, mass, side float64, exp *phys.Expansion, grafts []int32) {
	k := kBranchInt
	if leafCell {
		k = kBranchLeaf
	}
	idx := f.push(k, com, mass, side, exp, nil, -1, -1)
	f.graftLo[idx] = int32(len(f.grafts))
	f.grafts = append(f.grafts, grafts...)
	f.graftHi[idx] = int32(len(f.grafts))
}

// AddZero appends an empty local leaf standing in for a non-nil
// zero-count child: the traversal folds an exact zero vector and charges
// nothing, replaying the pointer walk's early return for such nodes.
func (f *Flat) AddZero() {
	lo := int32(len(f.cols.id))
	f.push(kLocalLeaf, vec.V3{}, 0, 0, nil, nil, lo, lo)
}

// CloseInternal patches an internal node's skip pointer past its
// completed subtree.
func (f *Flat) CloseInternal(idx int32) { f.skip[idx] = int32(len(f.kind)) }

// AddLocalSubtree inlines a locally-owned subtree, recording node
// references for Load write-back.
func (f *Flat) AddLocalSubtree(n *tree.Node) {
	if n.IsLeaf() {
		lo := int32(len(f.cols.id))
		for i := range n.Particles {
			p := &n.Particles[i]
			f.cols.id = append(f.cols.id, int32(p.ID))
			f.cols.px = append(f.cols.px, p.Pos.X)
			f.cols.py = append(f.cols.py, p.Pos.Y)
			f.cols.pz = append(f.cols.pz, p.Pos.Z)
			f.cols.pm = append(f.cols.pm, p.Mass)
		}
		f.push(kLocalLeaf, vec.V3{}, 0, 0, nil, n, lo, int32(len(f.cols.id)))
		return
	}
	idx := f.push(kLocalInt, n.COM, n.Mass, n.Box.LongestSide(), n.Exp, n, -1, -1)
	for _, c := range n.Children {
		if c != nil {
			f.AddLocalSubtree(c)
		}
	}
	f.skip[idx] = int32(len(f.kind))
}

// Seal finalizes construction: sizes the merged Load array.
func (f *Flat) Seal() {
	n := len(f.kind)
	if cap(f.loads) < n {
		f.loads = make([]int64, n)
	}
	f.loads = f.loads[:n]
	for i := range f.loads {
		f.loads[i] = 0
	}
}

// prepWorkers sizes and resets the per-worker shards before a sweep.
// Shards are cleared here, not inside the parallel body: when blocks
// don't divide evenly a trailing worker may get no block at all, and its
// stale shard must not leak into the worker-order merge.
func (f *Flat) prepWorkers(nParts, nNodes int) int {
	workers := compute.Workers(nParts)
	if workers < 1 {
		workers = 1
	}
	for len(f.scratch) < workers {
		f.scratch = append(f.scratch, letScratch{})
	}
	for w := 0; w < workers; w++ {
		f.scratch[w].resetLoads(nNodes)
		f.scratch[w].stats = tree.Stats{}
	}
	return workers
}

// ForceAll runs the force traversal for every particle, host-parallel
// via internal/compute, and merges the per-worker shards in worker order
// so results are invariant under GOMAXPROCS. out and extra are indexed
// like ps; extra receives each particle's summary-interaction flop
// charge accumulated with addend exAdd per accepted top/branch summary
// (the function-shipping extra-load account). Merged Load counters are
// left in the Flat for ApplyLocalLoads / SectionDeltas.
func (f *Flat) ForceAll(ps []dist.Particle, alpha, eps, exAdd float64, out []vec.V3, extra []float64) tree.Stats {
	n := len(f.kind)
	if len(ps) == 0 {
		return tree.Stats{}
	}
	workers := f.prepWorkers(len(ps), n)
	compute.ParallelBlocks(len(ps), func(worker, lo, hi int) {
		sc := &f.scratch[worker]
		for i := lo; i < hi; i++ {
			q := &ps[i]
			sc.defers = sc.defers[:0]
			a, ex := f.forceOne(sc, q.Pos, int32(q.ID), alpha, eps, exAdd)
			for _, si := range sc.defers {
				if si < 0 {
					panic("let: essential section missing for deferred branch")
				}
				a = a.Add(f.sectionForce(sc, f.sections[si], q.Pos, int32(q.ID), alpha, eps))
			}
			out[i] = a
			extra[i] = ex
		}
	})
	return f.merge(workers)
}

// PotentialAll is ForceAll for potential mode (leaf softening 0,
// accepted summaries evaluate their multipole expansions).
func (f *Flat) PotentialAll(ps []dist.Particle, alpha, exAdd float64, out []float64, extra []float64) tree.Stats {
	n := len(f.kind)
	if len(ps) == 0 {
		return tree.Stats{}
	}
	workers := f.prepWorkers(len(ps), n)
	compute.ParallelBlocks(len(ps), func(worker, lo, hi int) {
		sc := &f.scratch[worker]
		for i := lo; i < hi; i++ {
			q := &ps[i]
			sc.defers = sc.defers[:0]
			phi, ex := f.potOne(sc, q.Pos, int32(q.ID), alpha, exAdd)
			for _, si := range sc.defers {
				if si < 0 {
					panic("let: essential section missing for deferred branch")
				}
				phi += f.sectionPot(sc, f.sections[si], q.Pos, int32(q.ID), alpha)
			}
			out[i] = phi
			extra[i] = ex
		}
	})
	return f.merge(workers)
}

func (f *Flat) merge(workers int) tree.Stats {
	var stats tree.Stats
	for w := 0; w < workers; w++ {
		sc := &f.scratch[w]
		stats.Add(sc.stats)
		for j, v := range sc.loads {
			if v != 0 {
				f.loads[j] += v
			}
		}
	}
	return stats
}

// leafAccel folds cols[lo:hi) from a zero accumulator in column order —
// the same arithmetic, including the explicit add of a zero
// contribution, as tree.FlatTree's per-particle leaf sums.
func (f *Flat) leafAccel(lo, hi, self int32, pos vec.V3, e2 float64, s *tree.Stats) vec.V3 {
	ids, px, py, pz, ms := f.cols.id, f.cols.px, f.cols.py, f.cols.pz, f.cols.pm
	var ax, ay, az float64
	for j := lo; j < hi; j++ {
		if ids[j] == self {
			continue
		}
		dx, dy, dz := px[j]-pos.X, py[j]-pos.Y, pz[j]-pos.Z
		r2 := dx*dx + dy*dy + dz*dz + e2
		if r2 != 0 {
			inv := 1 / math.Sqrt(r2)
			g := phys.G * ms[j] * inv * inv * inv
			ax += g * dx
			ay += g * dy
			az += g * dz
		} else {
			ax += 0
			ay += 0
			az += 0
		}
		s.PP++
	}
	return vec.V3{X: ax, Y: ay, Z: az}
}

func (f *Flat) leafPot(lo, hi, self int32, pos vec.V3, s *tree.Stats) float64 {
	ids, px, py, pz, ms := f.cols.id, f.cols.px, f.cols.py, f.cols.pz, f.cols.pm
	var phi float64
	for j := lo; j < hi; j++ {
		if ids[j] == self {
			continue
		}
		phi += phys.Potential(pos, vec.V3{X: px[j], Y: py[j], Z: pz[j]}, ms[j], 0)
		s.PP++
	}
	return phi
}

// forceOne sweeps the main region for one particle. The arithmetic —
// shared difference vector for MAC and accepted-cluster kernel,
// push/fold accumulator stack on reject/close — replays the
// function-shipping traversal bit-exactly; deferred branches add an
// explicit zero vector (not a no-op under signed zeros) and record their
// graft list in sc.defers.
func (f *Flat) forceOne(sc *letScratch, pos vec.V3, self int32, alpha, eps float64, exAdd float64) (vec.V3, float64) {
	loads := sc.loads
	e2 := eps * eps
	comX, comY, comZ := f.comX, f.comY, f.comZ
	mass, side, skip, kind := f.mass, f.side, f.skip, f.kind
	var extra float64

	// Root: the traversal result is returned directly, never folded into
	// an enclosing accumulator (0+x is not an identity for −0).
	r := f.mainRoot
	switch kind[r] {
	case kLocalLeaf:
		lo, hi := f.leafLo[r], f.leafHi[r]
		loads[r] += int64(hi - lo)
		return f.leafAccel(lo, hi, self, pos, e2, &sc.stats), extra
	case kBranchLeaf:
		f.deferGrafts(sc, r)
		return vec.V3{}, extra
	}
	sc.stats.MACTests++
	{
		dx, dy, dz := comX[r]-pos.X, comY[r]-pos.Y, comZ[r]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[r]/d < alpha {
			sc.stats.PC++
			switch kind[r] {
			case kLocalInt:
				loads[r]++
			default:
				extra += exAdd
			}
			inv := 1 / math.Sqrt(n2 + e2)
			g := phys.G * mass[r] * inv * inv * inv
			return vec.V3{X: g * dx, Y: g * dy, Z: g * dz}, extra
		}
	}
	if kind[r] == kBranchInt {
		f.deferGrafts(sc, r)
		return vec.V3{}, extra
	}

	var top vec.V3
	stack := sc.acc[:0]
	ends := sc.ends[:0]
	n := skip[r]
	for i := r + 1; i < n; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			top = stack[len(stack)-1].Add(top)
			stack = stack[:len(stack)-1]
		}
		switch kind[i] {
		case kLocalLeaf:
			lo, hi := f.leafLo[i], f.leafHi[i]
			loads[i] += int64(hi - lo)
			top = top.Add(f.leafAccel(lo, hi, self, pos, e2, &sc.stats))
			i = skip[i]
			continue
		case kBranchLeaf:
			top = top.Add(vec.V3{})
			f.deferGrafts(sc, i)
			i = skip[i]
			continue
		}
		sc.stats.MACTests++
		dx, dy, dz := comX[i]-pos.X, comY[i]-pos.Y, comZ[i]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[i]/d < alpha {
			sc.stats.PC++
			if kind[i] == kLocalInt {
				loads[i]++
			} else {
				extra += exAdd
			}
			inv := 1 / math.Sqrt(n2 + e2)
			g := phys.G * mass[i] * inv * inv * inv
			top = vec.V3{X: top.X + g*dx, Y: top.Y + g*dy, Z: top.Z + g*dz}
			i = skip[i]
			continue
		}
		if kind[i] == kBranchInt {
			top = top.Add(vec.V3{})
			f.deferGrafts(sc, i)
			i = skip[i]
			continue
		}
		stack = append(stack, top)
		top = vec.V3{}
		ends = append(ends, skip[i])
		i++
	}
	for j := len(ends) - 1; j >= 0; j-- {
		top = stack[j].Add(top)
	}
	sc.acc, sc.ends = stack[:0], ends[:0]
	return top, extra
}

func (f *Flat) deferGrafts(sc *letScratch, i int32) {
	sc.defers = append(sc.defers, f.grafts[f.graftLo[i]:f.graftHi[i]]...)
}

// sectionForce replays the owner-side service of one deferred branch:
// evaluation starts below the (already rejected) branch root, exactly as
// serveForce does. Section loads land in the worker shard and flow back
// to the owner as deltas.
func (f *Flat) sectionForce(sc *letScratch, m SecMeta, pos vec.V3, self int32, alpha, eps float64) vec.V3 {
	loads := sc.loads
	e2 := eps * eps
	base := m.Base
	if f.kind[base] == kSecLeaf {
		lo, hi := f.leafLo[base], f.leafHi[base]
		loads[base] += int64(hi - lo)
		return f.leafAccel(lo, hi, self, pos, e2, &sc.stats)
	}
	loads[base]++ // serveForce: branch.Load++ per served visit
	comX, comY, comZ := f.comX, f.comY, f.comZ
	mass, side, skip, kind := f.mass, f.side, f.skip, f.kind
	var top vec.V3
	stack := sc.acc[:0]
	ends := sc.ends[:0]
	for i := base + 1; i < m.End; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			top = stack[len(stack)-1].Add(top)
			stack = stack[:len(stack)-1]
		}
		if kind[i] == kSecLeaf {
			lo, hi := f.leafLo[i], f.leafHi[i]
			loads[i] += int64(hi - lo)
			top = top.Add(f.leafAccel(lo, hi, self, pos, e2, &sc.stats))
			i = skip[i]
			continue
		}
		sc.stats.MACTests++
		dx, dy, dz := comX[i]-pos.X, comY[i]-pos.Y, comZ[i]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[i]/d < alpha {
			sc.stats.PC++
			loads[i]++
			inv := 1 / math.Sqrt(n2 + e2)
			g := phys.G * mass[i] * inv * inv * inv
			top = vec.V3{X: top.X + g*dx, Y: top.Y + g*dy, Z: top.Z + g*dz}
			i = skip[i]
			continue
		}
		if kind[i] == kSecClosed {
			panic("let: essential-set criterion violated (closed node rejected by MAC)")
		}
		stack = append(stack, top)
		top = vec.V3{}
		ends = append(ends, skip[i])
		i++
	}
	for j := len(ends) - 1; j >= 0; j-- {
		top = stack[j].Add(top)
	}
	sc.acc, sc.ends = stack[:0], ends[:0]
	return top
}

// potOne is forceOne for potential mode.
func (f *Flat) potOne(sc *letScratch, pos vec.V3, self int32, alpha, exAdd float64) (float64, float64) {
	loads := sc.loads
	comX, comY, comZ := f.comX, f.comY, f.comZ
	side, skip, kind := f.side, f.skip, f.kind
	var extra float64

	r := f.mainRoot
	switch kind[r] {
	case kLocalLeaf:
		lo, hi := f.leafLo[r], f.leafHi[r]
		loads[r] += int64(hi - lo)
		return f.leafPot(lo, hi, self, pos, &sc.stats), extra
	case kBranchLeaf:
		f.deferGrafts(sc, r)
		return 0, extra
	}
	sc.stats.MACTests++
	{
		dx, dy, dz := comX[r]-pos.X, comY[r]-pos.Y, comZ[r]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[r]/d < alpha {
			sc.stats.PC++
			if kind[r] == kLocalInt {
				loads[r]++
			} else {
				extra += exAdd
			}
			return f.exps[r].EvalPotential(pos), extra
		}
	}
	if kind[r] == kBranchInt {
		f.deferGrafts(sc, r)
		return 0, extra
	}

	var top float64
	stack := sc.facc[:0]
	ends := sc.ends[:0]
	n := skip[r]
	for i := r + 1; i < n; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			top = stack[len(stack)-1] + top
			stack = stack[:len(stack)-1]
		}
		switch kind[i] {
		case kLocalLeaf:
			lo, hi := f.leafLo[i], f.leafHi[i]
			loads[i] += int64(hi - lo)
			top += f.leafPot(lo, hi, self, pos, &sc.stats)
			i = skip[i]
			continue
		case kBranchLeaf:
			top += 0
			f.deferGrafts(sc, i)
			i = skip[i]
			continue
		}
		sc.stats.MACTests++
		dx, dy, dz := comX[i]-pos.X, comY[i]-pos.Y, comZ[i]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[i]/d < alpha {
			sc.stats.PC++
			if kind[i] == kLocalInt {
				loads[i]++
			} else {
				extra += exAdd
			}
			top += f.exps[i].EvalPotential(pos)
			i = skip[i]
			continue
		}
		if kind[i] == kBranchInt {
			top += 0
			f.deferGrafts(sc, i)
			i = skip[i]
			continue
		}
		stack = append(stack, top)
		top = 0
		ends = append(ends, skip[i])
		i++
	}
	for j := len(ends) - 1; j >= 0; j-- {
		top = stack[j] + top
	}
	sc.facc, sc.ends = stack[:0], ends[:0]
	return top, extra
}

// sectionPot is sectionForce for potential mode.
func (f *Flat) sectionPot(sc *letScratch, m SecMeta, pos vec.V3, self int32, alpha float64) float64 {
	loads := sc.loads
	base := m.Base
	if f.kind[base] == kSecLeaf {
		lo, hi := f.leafLo[base], f.leafHi[base]
		loads[base] += int64(hi - lo)
		return f.leafPot(lo, hi, self, pos, &sc.stats)
	}
	loads[base]++
	comX, comY, comZ := f.comX, f.comY, f.comZ
	side, skip, kind := f.side, f.skip, f.kind
	var top float64
	stack := sc.facc[:0]
	ends := sc.ends[:0]
	for i := base + 1; i < m.End; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			top = stack[len(stack)-1] + top
			stack = stack[:len(stack)-1]
		}
		if kind[i] == kSecLeaf {
			lo, hi := f.leafLo[i], f.leafHi[i]
			loads[i] += int64(hi - lo)
			top += f.leafPot(lo, hi, self, pos, &sc.stats)
			i = skip[i]
			continue
		}
		sc.stats.MACTests++
		dx, dy, dz := comX[i]-pos.X, comY[i]-pos.Y, comZ[i]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[i]/d < alpha {
			sc.stats.PC++
			loads[i]++
			top += f.exps[i].EvalPotential(pos)
			i = skip[i]
			continue
		}
		if kind[i] == kSecClosed {
			panic("let: essential-set criterion violated (closed node rejected by MAC)")
		}
		stack = append(stack, top)
		top = 0
		ends = append(ends, skip[i])
		i++
	}
	for j := len(ends) - 1; j >= 0; j-- {
		top = stack[j] + top
	}
	sc.facc, sc.ends = stack[:0], ends[:0]
	return top
}

// ApplyLocalLoads adds the merged Load counters of local nodes back to
// their tree nodes.
func (f *Flat) ApplyLocalLoads() {
	for i, n := range f.nodeRefs {
		if n != nil && f.loads[i] != 0 {
			n.Load += f.loads[i]
		}
	}
}

// SectionDeltas appends section si's non-zero Load deltas (ordinals are
// section-relative, matching the owner's BuildSection node order) to the
// given slices and returns them.
func (f *Flat) SectionDeltas(si int, nodes []int32, deltas []int64) ([]int32, []int64) {
	m := f.sections[si]
	for i := m.Base; i < m.End; i++ {
		if v := f.loads[i]; v != 0 {
			nodes = append(nodes, i-m.Base)
			deltas = append(deltas, v)
		}
	}
	return nodes, deltas
}

// Section returns the metadata of section si.
func (f *Flat) Section(si int) SecMeta { return f.sections[si] }
