// Command perfbench is the repository's benchmark. It runs one workload
// through the program's public entry points, checks the outputs, and
// prints every metric by name and unit, ending with one JSON line. From
// the repository root:
//
//	bash perfbench/run.sh --workload serial-force --seed 1 --seconds 30 --trace 0
//
// --trace 1 makes a separate traced run that records spans around each
// layer call, reports the per-layer metrics, and writes the spans as
// Chrome trace JSON (open it in Perfetto). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	// tiny shrinks every input so a run takes about a second; the smoke
	// tests use it.
	tiny bool
	// tmpDir holds the fleet's journals and spools.
	tmpDir string
}

// workload is one workload's runner, whose tracer is nil for an
// untraced run, and the GOMAXPROCS it runs at (0 = one per CPU).
//
// The host is a few cores' share of a machine. A simulation step that
// keeps every core busy measures how the host schedules the program's
// threads beside its neighbours' work as much as the program, so the
// simulations run on one core; compute.speedup, in the traced
// serial-force run, reports what the other cores add to the force
// sweep. The fleet runs two shards of one worker each, one job per
// core: on a single core a job's latency would depend on whether the
// other shard's job overlaps it.
type workload struct {
	run   func(config, *tracer) (*outcome, error)
	procs int
}

var workloads = map[string]workload{
	"serial-force": {runSerial, 1},
	"dpda-let-p16": {runDPDA, 1},
	"fleet-jobs":   {runFleet, 0},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	secs := fs.Float64("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace path for --trace 1 (default .bench_build/trace/<workload>-seed<seed>.json)")
	tmpDir := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the fleet's journals and spools")
	tiny := fs.Bool("tiny", false, "shrink every input (smoke test sizes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	procs := w.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *secs, tiny: *tiny, tmpDir: *tmpDir}
	var tr *tracer
	defs := endToEnd
	if *trace == 1 {
		tr = newTracer()
		defs = perLayer
	}

	start := time.Now()
	out, err := w.run(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := tr.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(tr.snapshot()), path)
	}

	res := result{
		Attempted: out.checks.attempted,
		Failed:    out.checks.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && tr == nil {
			fmt.Fprintf(stderr, "perfbench: %s did not produce %s\n", *name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		out.values[d.Name] = v
	}
	if err := finite(out.values); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, note := range out.checks.notes {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", note)
	}

	fmt.Fprintf(stdout, "workload %s seed %d trace %d procs %d: %d operations checked, %d failed (failed_frac %.4g), %.1f s\n",
		*name, *seed, *trace, procs, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), time.Since(start).Seconds())
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	// Step and job latency are printed but are not end-to-end metrics:
	// the host's neighbours slow it by up to a half for minutes at a
	// time, more than any bound allows (README.md, "Host clock").
	if v, ok := out.values["latency_s_p10"]; ok && tr == nil {
		fmt.Fprintf(stdout, "  %-30s %14.6g s (host clock, not in the result)\n", "latency_s_p10", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
