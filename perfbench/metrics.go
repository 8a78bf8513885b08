package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's metric contract; BENCHMARK.json at the repository
// root lists the same names and units (a test keeps them in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd is what an untraced run reports on every workload. "Unit of
// work" is a warm step for serial-force and dpda-let-p16 and one job
// (submit to done) for fleet-jobs; README.md gives each metric's
// definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_bytes", "bytes"},
	{"force_err_rms", "1"},
	{"force_err_p99", "1"},
	{"sim_step_s", "sim_s"},
	{"sim_efficiency", "1"},
}

// perLayer is what a traced run reports. A layer a workload never calls
// reads 0 there.
var perLayer = []metricDef{
	// serial-force: the composed step's layers.
	{"keys.sort_s", "s"},
	{"tree.build_s", "s"},
	{"tree.build_cold_s", "s"},
	{"tree.flatten_s", "s"},
	{"tree.force_s", "s"},
	{"integrate.self_s", "s"},
	{"tree.interactions", "count"},
	{"tree.mac_tests", "count"},
	{"tree.interactions_per_s", "1/s"},
	{"tree.reuse_ratio", "1"},
	{"tree.nodes", "count"},
	{"compute.speedup", "1"},
	// dpda-let-p16 (and the fleet's SPDA jobs): simulated-machine phases.
	{"parbh.sim.migrate_s", "sim_s"},
	{"parbh.sim.local_tree_s", "sim_s"},
	{"parbh.sim.tree_merge_s", "sim_s"},
	{"parbh.sim.broadcast_s", "sim_s"},
	{"parbh.sim.let_exchange_s", "sim_s"},
	{"parbh.sim.force_s", "sim_s"},
	{"parbh.sim.load_balance_s", "sim_s"},
	{"msg.words_per_step", "count"},
	{"msg.messages_per_step", "count"},
	{"msg.barrier_wait_sim_s", "sim_s"},
	{"let.cache_hits", "count"},
	{"partition.imbalance", "1"},
	// fleet-jobs: control plane, shard service and frame store.
	{"fabric.submit_s_p50", "s"},
	{"fabric.dispatch_wait_s_p50", "s"},
	{"fabric.journal_bytes_per_job", "bytes"},
	{"fabric.return_s_p50", "s"},
	{"fabric.cache_hit_ratio", "1"},
	{"fabric.repeat_share", "1"},
	{"fabric.rejected_429", "count"},
	{"service.queue_wait_s_p50", "s"},
	{"service.run_s_p50", "s"},
	{"frames.bytes_per_step", "bytes"},
	{"frames.replay_s_p50", "s"},
	{"fleet.latency_s_p90", "s"},
	{"fleet.first_step_s_p50", "s"},
	{"fleet.jobs_per_s", "1/s"},
	// Every workload: the untraced units' latency, and the traced over
	// the untraced median latency, minus one.
	{"host.latency_s_p10", "s"},
	{"trace_overhead_frac", "1"},
}

// checker counts the operations a run attempted and the ones that failed
// an output check; failed/attempted is the run's failed fraction.
type checker struct {
	attempted, failed int
	notes             []string
}

// check records one checked operation, keeping a note when it failed.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// outcome is what a workload run produces: metric values by name and the
// output checks it made.
type outcome struct {
	values map[string]float64
	checks checker
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// liveHeap runs a full garbage collection and returns the bytes it
// found reachable: the heap the program retains at that point. Callers
// take it at a step or job boundary, where transient buffers are gone,
// so the figure does not swing with where a collection happened to
// land mid-step.
func liveHeap() float64 {
	// The first collection moves pooled buffers to the pools' victim
	// caches; the second frees them.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// finite reports whether every value is a finite number; JSON has no
// encoding for NaN or ±Inf.
func finite(values map[string]float64) error {
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}
