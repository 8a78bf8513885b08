package main

import (
	"fmt"
	"runtime"
	"time"

	barneshut "repro"
	"repro/internal/dist"
	"repro/internal/integrate"
	"repro/internal/tree"
	"repro/internal/vec"
)

// serial-force: SerialSim on the clustered paper dataset, where the force
// sweep is nearly the whole step.
const (
	serialDataset = "s_1g_a"
	serialN       = 100000
	serialAlpha   = 0.67
	serialEps     = 0.01
	serialLeafCap = 8
	serialDT      = 0.01
	// serialErrCeiling bounds force_err_rms; a larger error fails the
	// run's accuracy check. Monopole Barnes–Hut at α = 0.67 on this
	// dataset sits near 3e-3.
	serialErrCeiling = 0.01
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// serialFixedSteps is how many warm steps the step-count-dependent
// values (simulated time, accuracy, per-layer counts) are taken over, so
// that they do not depend on how many steps the host fits in a window.
const serialFixedSteps = 3

// errSample is how many particles the accuracy check compares with
// direct summation.
const errSample = 1000

func runSerial(cfg config, tr *tracer) (*outcome, error) {
	n, sample := serialN, errSample
	if cfg.tiny {
		n, sample = 3000, 200
	}
	set, err := dist.Named(serialDataset, n, cfg.seed)
	if err != nil {
		return nil, err
	}
	scfg := barneshut.SerialConfig{
		Alpha: serialAlpha, Eps: serialEps, LeafCap: serialLeafCap, DT: serialDT, Integrator: "leapfrog",
	}
	out := newOutcome()

	// Set-up: construction plus the first step, whose two force
	// evaluations build the tree from scratch. Every repeat must land on
	// the same bits.
	repeats := setupRepeats
	if tr != nil {
		repeats = 1
	}
	var sim *barneshut.SerialSim
	var setups []float64
	var firstBodies []dist.Particle
	var firstStats tree.Stats
	for i := 0; i < repeats; i++ {
		sim = nil
		runtime.GC()
		t0 := time.Now()
		s, err := barneshut.NewSerialSim(set, scfg)
		if err != nil {
			return nil, err
		}
		st := s.Step()
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			firstBodies, firstStats = s.Bodies(), st
		} else {
			out.checks.check(st == firstStats && sameBodies(firstBodies, s.Bodies()),
				"serial-force: set-up %d's first step differs from set-up 0's", i)
		}
		sim = s
	}

	if tr != nil {
		return out, traceSerial(cfg, tr, set.Domain, sim, out)
	}

	var flops []float64
	var bodies []dist.Particle
	var heap float64
	durs := timeLoop(cfg.seconds, serialFixedSteps, func() time.Duration {
		var st tree.Stats
		d := timed(func() { st = sim.Step() })
		out.checks.check(st.Interactions() > 0, "serial-force: step %d computed no interactions", sim.Steps())
		if len(flops) < serialFixedSteps {
			flops = append(flops, st.Flops(0))
			if len(flops) == serialFixedSteps {
				bodies = sim.Bodies()
				heap = liveHeap()
			}
		}
		return d
	})

	// Accuracy at the end of the fixed steps: the tree forces at those
	// positions (pointer traversal, bit-identical to the step's flat
	// kernel) against direct summation on a seeded sample.
	idx := sampleIndices(len(bodies), sample, cfg.seed)
	t := tree.BuildKeyed(bodies, set.Domain, serialLeafCap)
	approx := make([]vec.V3, len(idx))
	for k, i := range idx {
		approx[k] = t.AccelAt(bodies[i].Pos, bodies[i].ID, serialAlpha, serialEps, nil)
	}
	errs := forceErrors(bodies, idx, approx, serialEps)
	errRMS := rms(errs)
	out.checks.check(errRMS < serialErrCeiling, "serial-force: force_err_rms %.4g exceeds ceiling %g", errRMS, serialErrCeiling)

	out.values["setup_s"] = median(setups)
	out.values["latency_s_p10"] = quantile(seconds(durs), latencyQuantile)
	out.values["live_heap_bytes"] = heap
	out.values["force_err_rms"] = errRMS
	out.values["force_err_p99"] = quantile(errs, 0.99)
	// One processor of the simulated machine: the step's force work
	// charged at a CM5 node's flop rate, and efficiency 1 by definition.
	out.values["sim_step_s"] = median(flops) / barneshut.CM5().FlopRate
	out.values["sim_efficiency"] = 1
	return out, nil
}

// composed is SerialSim's warm step spelled out through the layers'
// public calls — tree.Builder.Step, tree.Flatten, tree.FlatTree.AccelAll
// inside integrate.Leapfrog.Step — so each call can carry a span.
type composed struct {
	builder *tree.Builder
	flat    *tree.FlatTree
	lf      integrate.Leapfrog
	tr      *tracer

	stats tree.Stats
	rep   tree.BuildReport
	nodes int
}

func newComposed(domain vec.Box) *composed {
	return &composed{builder: tree.NewBuilder(domain, serialLeafCap)}
}

// step advances ps by one leapfrog step and returns the root span id.
func (c *composed) step(ps []dist.Particle) int {
	const track = "serial-force"
	root := c.tr.begin("integrate.Leapfrog.Step", track, "", 0)
	c.lf.Step(ps, serialDT, func(ps []dist.Particle) []vec.V3 {
		b := c.tr.begin("tree.Builder.Step", track, "", root)
		t := c.builder.Step(ps)
		c.tr.end(b)
		c.rep = c.builder.Last()
		if c.tr != nil {
			// Builder.Step recomputes keys and re-sorts before touching the
			// tree; its report times that prefix.
			bs := c.tr.get(b)
			start := c.tr.epoch.Add(bs.Start)
			c.tr.record("keys.sort", track, "", b, start, start.Add(c.rep.KeyDur+c.rep.SortDur))
		}
		f := c.tr.begin("tree.Flatten", track, "", root)
		c.flat = tree.Flatten(t, c.flat)
		c.tr.end(f)
		a := c.tr.begin("tree.FlatTree.AccelAll", track, "", root)
		acc, st := c.flat.AccelAll(ps, serialAlpha, serialEps)
		c.tr.end(a)
		c.stats = st
		c.nodes = c.flat.NumNodes()
		return acc
	})
	c.tr.end(root)
	return root
}

// traceSerial is the traced serial-force run: a bit-identity check of
// the composed step against SerialSim, a window of composed steps that
// alternate traced and untraced, then the cold-build and single-thread
// baselines on the particles of the last composed step. Per-layer values
// come from the first serialFixedSteps traced steps.
func traceSerial(cfg config, tr *tracer, domain vec.Box, sim *barneshut.SerialSim, out *outcome) error {
	c := newComposed(domain)
	ps := sim.Bodies()
	c.step(ps) // untraced: warms the builder and the leapfrog's cached accelerations
	sim.Step()
	out.checks.check(sameBodies(ps, sim.Bodies()) && c.stats == sim.LastStats(),
		"serial-force: composed step differs from SerialSim.Step (stats %+v vs %+v)", c.stats, sim.LastStats())

	type evalRecord struct {
		root  int
		stats tree.Stats
		rep   tree.BuildReport
		nodes int
	}
	var evals []evalRecord
	traced, untraced := alternate(cfg.seconds, serialFixedSteps, func(on bool) time.Duration {
		c.tr = nil
		if on {
			c.tr = tr
		}
		var root int
		d := timed(func() { root = c.step(ps) })
		if on && len(evals) < serialFixedSteps {
			evals = append(evals, evalRecord{root, c.stats, c.rep, c.nodes})
		}
		out.checks.check(c.stats.Interactions() > 0, "serial-force: composed step computed no interactions")
		return d
	})

	spans := tr.snapshot()
	self := selfTimes(spans)
	byParent := make(map[int][]span)
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var sortS, buildS, flattenS, forceS, integS, inter, macs, rate, nodes []float64
	var refreshed, rebuilt int
	for _, e := range evals {
		integS = append(integS, self[e.root].Seconds())
		for _, s := range byParent[e.root] {
			switch s.Name {
			case "tree.Builder.Step":
				buildS = append(buildS, self[s.ID].Seconds())
			case "tree.Flatten":
				flattenS = append(flattenS, s.Dur().Seconds())
			case "tree.FlatTree.AccelAll":
				forceS = append(forceS, s.Dur().Seconds())
				rate = append(rate, float64(e.stats.Interactions())/s.Dur().Seconds())
			}
		}
		sortS = append(sortS, (e.rep.KeyDur + e.rep.SortDur).Seconds())
		inter = append(inter, float64(e.stats.Interactions()))
		macs = append(macs, float64(e.stats.MACTests))
		nodes = append(nodes, float64(e.nodes))
		refreshed += e.rep.Refreshed
		rebuilt += e.rep.Rebuilt
	}

	// Cold-build baseline: BuildKeyed on the particles the last step's
	// incremental build saw.
	var cold []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("tree.BuildKeyed", "serial-force", "", 0)
		t := tree.BuildKeyed(ps, domain, serialLeafCap)
		tr.end(id)
		cold = append(cold, tr.get(id).Dur().Seconds())
		inc := c.builder.Tree().NumNodes()
		out.checks.check(t.NumNodes() == inc, "serial-force: cold build has %d nodes, incremental %d", t.NumNodes(), inc)
	}

	// Single-thread baseline: the same force sweep at GOMAXPROCS=1, then
	// on every core of the machine; results must not depend on it.
	prev := runtime.GOMAXPROCS(1)
	id1 := tr.begin("tree.FlatTree.AccelAll GOMAXPROCS=1", "serial-force", "", 0)
	acc1, st1 := c.flat.AccelAll(ps, serialAlpha, serialEps)
	tr.end(id1)
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	idN := tr.begin(fmt.Sprintf("tree.FlatTree.AccelAll GOMAXPROCS=%d", procs), "serial-force", "", 0)
	accN, stN := c.flat.AccelAll(ps, serialAlpha, serialEps)
	tr.end(idN)
	runtime.GOMAXPROCS(prev)
	out.checks.check(st1 == stN && sameVecs(acc1, accN), "serial-force: AccelAll differs between GOMAXPROCS=1 and %d", procs)

	v := out.values
	v["keys.sort_s"] = median(sortS)
	v["tree.build_s"] = median(buildS)
	v["tree.build_cold_s"] = median(cold)
	v["tree.flatten_s"] = median(flattenS)
	v["tree.force_s"] = median(forceS)
	v["integrate.self_s"] = median(integS)
	v["tree.interactions"] = median(inter)
	v["tree.mac_tests"] = median(macs)
	v["tree.interactions_per_s"] = median(rate)
	if refreshed+rebuilt > 0 {
		v["tree.reuse_ratio"] = float64(refreshed) / float64(refreshed+rebuilt)
	}
	v["tree.nodes"] = median(nodes)
	v["compute.speedup"] = tr.get(id1).Dur().Seconds() / tr.get(idN).Dur().Seconds()
	v["host.latency_s_p10"] = quantile(seconds(untraced), latencyQuantile)
	v["trace_overhead_frac"] = median(seconds(traced))/median(seconds(untraced)) - 1
	return nil
}
