package main

import (
	"runtime"
	"time"

	barneshut "repro"
	"repro/internal/dist"
	"repro/internal/obsv"
	"repro/internal/vec"
)

// dpda-let-p16: the paper's dynamic-partitioning formulation on a
// simulated 16-processor CM5, exchanging locally essential trees.
const (
	dpdaDataset = "s_1g_a"
	dpdaN       = 20000
	dpdaProcs   = 16
	dpdaEps     = 0.01
	// dpdaErrCeiling bounds force_err_rms (same α and dataset as
	// serial-force).
	dpdaErrCeiling = 0.01
	// dpdaFixedSteps is how many warm steps the simulated-machine values
	// and the accuracy check are taken over, so that they do not depend
	// on how many steps the host fits in a window.
	dpdaFixedSteps = 20
)

func dpdaConfig(shipping barneshut.Shipping) barneshut.Config {
	return barneshut.Config{
		Processors: dpdaProcs,
		Profile:    barneshut.CM5(),
		Scheme:     barneshut.DPDA,
		Shipping:   shipping,
		Eps:        dpdaEps,
	}
}

// phaseMetrics maps Result.Phases keys to per-layer metric names.
var phaseMetrics = map[string]string{
	barneshut.PhaseMigrate:   "parbh.sim.migrate_s",
	barneshut.PhaseLocalTree: "parbh.sim.local_tree_s",
	barneshut.PhaseTreeMerge: "parbh.sim.tree_merge_s",
	barneshut.PhaseBroadcast: "parbh.sim.broadcast_s",
	barneshut.PhaseLET:       "parbh.sim.let_exchange_s",
	barneshut.PhaseForce:     "parbh.sim.force_s",
	barneshut.PhaseLoadBal:   "parbh.sim.load_balance_s",
}

// dpdaDatasets is how many independent datasets one run simulates.
// Where the cluster lands in the octree changes the work and the error
// from seed to seed; pooling several datasets steadies the run's
// figures. The window steps their simulations in turn, so a slowdown of
// the host falls on all of them alike.
const dpdaDatasets = 3

// dpdaSetup builds a simulation over set and takes its first step, the
// set-up a user pays before the first warm step.
func dpdaSetup(set *dist.Set, shipping barneshut.Shipping) (*barneshut.Simulation, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	sim, err := barneshut.NewSimulation(set, dpdaConfig(shipping))
	if err != nil {
		return nil, 0, err
	}
	sim.Step()
	return sim, time.Since(t0), nil
}

func runDPDA(cfg config, tr *tracer) (*outcome, error) {
	n, sample, fixed, datasets := dpdaN, errSample, dpdaFixedSteps, dpdaDatasets
	if cfg.tiny {
		n, sample, fixed = 3000, 200, 3
	}
	if tr != nil {
		datasets = 1
	}
	out := newOutcome()
	var setups []float64
	sims := make([]*barneshut.Simulation, datasets)
	seeds := make([]int64, datasets)
	for d := range sims {
		seeds[d] = cfg.seed*dpdaDatasets + int64(d)
		set, err := dist.Named(dpdaDataset, n, seeds[d])
		if err != nil {
			return nil, err
		}
		sim, setup, err := dpdaSetup(set, barneshut.LETShipping)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		first := sim.LastResult()

		// LET shipping must reproduce function shipping bit for bit, and a
		// second set-up must land on the same bits; checked outside the
		// timed region. Both LET set-ups count towards setup_s.
		fsim, _, err := dpdaSetup(set, barneshut.FunctionShipping)
		if err != nil {
			return nil, err
		}
		fres := fsim.LastResult()
		out.checks.check(sameVecs(first.Accels, fres.Accels) && first.Stats == fres.Stats,
			"dpda-let-p16: dataset %d: first-step accelerations differ between LET and function shipping", d)
		fsim = nil
		if tr == nil {
			again, setup, err := dpdaSetup(set, barneshut.LETShipping)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
			res := again.LastResult()
			out.checks.check(sameBits(res.SimTime, first.SimTime) && res.Stats == first.Stats &&
				sameBodies(sim.Bodies(), again.Bodies()), "dpda-let-p16: dataset %d: a second set-up differs from the first", d)
		}
		if tr != nil {
			return out, traceDPDA(cfg, tr, sim, fixed, out)
		}
		sims[d] = sim
	}

	var simTimes, effs []float64
	durs := make([][]float64, datasets)
	var heap float64
	bodies := make([][]dist.Particle, datasets)
	accels := make([][]vec.V3, datasets)
	counts := make([]int, datasets)
	k := 0
	timeLoop(cfg.seconds, fixed*datasets, func() time.Duration {
		d := k % datasets
		k++
		sim := sims[d]
		var res *barneshut.StepResult
		dur := timed(func() { res = sim.Step() })
		durs[d] = append(durs[d], dur.Seconds())
		out.checks.check(res.SimTime > 0 && res.Stats.Interactions() > 0, "dpda-let-p16: dataset %d: step %d is empty", d, sim.Steps())
		if counts[d]++; counts[d] <= fixed {
			simTimes = append(simTimes, res.SimTime)
			effs = append(effs, res.Efficiency)
			if counts[d] == fixed {
				bodies[d], accels[d] = sim.Bodies(), append([]vec.V3(nil), res.Accels...)
			}
			if k == fixed*datasets {
				heap = liveHeap()
			}
		}
		return dur
	})

	// Accuracy at the end of each dataset's fixed steps: that
	// evaluation's accelerations (indexed by particle ID, at those
	// positions) against direct summation on a seeded sample.
	var errs, lat []float64
	for d := range sims {
		lat = append(lat, quantile(durs[d], latencyQuantile))
		idx := sampleIndices(len(bodies[d]), sample, seeds[d])
		approx := make([]vec.V3, len(idx))
		for k, i := range idx {
			approx[k] = accels[d][i]
		}
		errs = append(errs, forceErrors(bodies[d], idx, approx, dpdaEps)...)
	}
	errRMS := rms(errs)
	out.checks.check(errRMS < dpdaErrCeiling, "dpda-let-p16: force_err_rms %.4g exceeds ceiling %g", errRMS, dpdaErrCeiling)

	out.values["setup_s"] = median(setups)
	out.values["latency_s_p10"] = mean(lat)
	out.values["live_heap_bytes"] = heap
	out.values["force_err_rms"] = errRMS
	out.values["force_err_p99"] = quantile(errs, 0.99)
	out.values["sim_step_s"] = mean(simTimes)
	out.values["sim_efficiency"] = mean(effs)
	return out, nil
}

// traceDPDA is the traced dpda-let-p16 run: a window whose steps
// alternate between traced — a span around Simulation.Step and an obsv
// tracer on the simulated machine, whose barrier-wait spans give the
// idle time — and untraced. Per-layer values come from the first fixed
// traced steps.
func traceDPDA(cfg config, tr *tracer, sim *barneshut.Simulation, fixed int, out *outcome) error {
	machine := obsv.New()
	sums := make(map[string]float64)
	steps := 0
	traced, untraced := alternate(cfg.seconds, fixed, func(on bool) time.Duration {
		if !on {
			return timed(func() { sim.Step() })
		}
		sim.SetTracer(machine)
		defer sim.SetTracer(nil)
		id := tr.begin("barneshut.Simulation.Step", "dpda-let-p16", "", 0)
		res := sim.Step()
		tr.end(id)
		d := tr.get(id).Dur()
		out.checks.check(res.SimTime > 0 && res.Stats.Interactions() > 0, "dpda-let-p16: traced step %d is empty", sim.Steps())
		var wait float64
		for _, ev := range machine.Events() {
			if ev.Name == "barrier wait" {
				wait += ev.Dur / 1e6
			}
		}
		machine.Reset()
		if steps == fixed {
			return d
		}
		steps++
		for phase, name := range phaseMetrics {
			sums[name] += res.Phases[phase]
		}
		sums["msg.words_per_step"] += float64(res.CommWords)
		sums["msg.messages_per_step"] += float64(res.CommMessages)
		sums["let.cache_hits"] += float64(res.LETCacheHits)
		sums["partition.imbalance"] += res.Imbalance
		sums["tree.interactions"] += float64(res.Stats.Interactions())
		sums["tree.mac_tests"] += float64(res.Stats.MACTests)
		sums["msg.barrier_wait_sim_s"] += wait / dpdaProcs
		return d
	})
	for name, sum := range sums {
		out.values[name] = sum / float64(steps)
	}
	out.values["host.latency_s_p10"] = quantile(seconds(untraced), latencyQuantile)
	out.values["trace_overhead_frac"] = median(seconds(traced))/median(seconds(untraced)) - 1
	return nil
}
