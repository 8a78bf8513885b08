package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/frames"
	"repro/internal/service"
	"repro/internal/vec"
)

// fleet-jobs: a gateway with two shards, driven over HTTP by a closed
// loop of clients submitting small jobs.
const (
	fleetShards  = 2
	fleetClients = 2
	fleetN       = 1000
	fleetSteps   = 10
	// fleetPoll is the client's status poll interval; first-step and
	// done times are observed at this resolution.
	fleetPoll = 5 * time.Millisecond
	// Every fleetRepeatEvery-th submission repeats an earlier spec, and
	// every fleetReplayEvery-th job a shard ran has its frame chain read
	// back.
	fleetRepeatEvery = 3
	fleetReplayEvery = 3
	// Every job a shard ran among the first fleetVerifyFrom submissions
	// (20 distinct specs) is recomputed in-process and compared, and gives
	// the force errors; a fixed prefix keeps the sample independent of how
	// many jobs the host fits in a window.
	fleetVerifyFrom = 30
	// fleetHeapJobs is the finished-job count at which the live heap is
	// taken: the gateway keeps every job's record and result, so its
	// heap grows with the jobs run, and a fixed count keeps the figure
	// independent of throughput. The clients pause there until no job is
	// in flight, so a journal compaction's snapshot buffer is not caught
	// half-written.
	fleetHeapJobs = 60
	// fleetErrCeiling bounds force_err_rms of the recomputed jobs.
	fleetErrCeiling = 0.01
)

// fleetSpec is the job every client submits, differing only in the
// dataset seed.
func fleetSpec(n, steps int, seed int64) service.JobSpec {
	return service.JobSpec{
		Dist: "plummer", N: n, Seed: seed, Processors: 4, Scheme: "spda",
		Shipping: "function", Machine: "ideal", Steps: steps, Eps: 0.05,
	}
}

// jobPlan derives the k-th submission from the run seed alone: every
// fleetRepeatEvery-th submission repeats a distinct spec submitted
// earlier, chosen by a generator seeded with (seed, k); the others are
// new datasets.
type jobPlan struct {
	seed     int64
	n, steps int
}

func (p jobPlan) spec(k int) (spec service.JobSpec, repeat bool) {
	distinct := k - k/fleetRepeatEvery // distinct specs among submissions 0..k-1
	j := distinct
	if k%fleetRepeatEvery == fleetRepeatEvery-1 {
		j = rand.New(rand.NewSource(p.seed*1_000_003 + int64(k))).Intn(distinct)
		repeat = true
	}
	return fleetSpec(p.n, p.steps, p.seed*100_000+int64(j)+1), repeat
}

// fleet is an in-process gateway (journal on) plus shard services (spool
// and frame store on), each serving its HTTP API on loopback.
type fleet struct {
	gw        *fabric.Gateway
	gwSrv     *httptest.Server
	svcs      []*service.Service
	shardSrvs []*httptest.Server
	spools    []string
	stop      chan struct{}
	agents    sync.WaitGroup
}

// startFleet starts a fleet under dir and returns once every shard has
// registered with the gateway.
func startFleet(dir string) (*fleet, error) {
	// The services log routine events (shard registered, job done); a
	// failure that matters surfaces as an error or a failed check.
	logf := func(string, ...any) {}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	gw, err := fabric.NewGateway(fabric.Options{JournalPath: filepath.Join(dir, "gateway.journal"), Logf: logf})
	if err != nil {
		return nil, err
	}
	f := &fleet{gw: gw, gwSrv: httptest.NewServer(gw.Handler()), stop: make(chan struct{})}
	for i := 0; i < fleetShards; i++ {
		spool := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		svc, err := service.New(service.Options{Workers: 1, SpoolDir: spool, Logf: logf})
		if err != nil {
			f.close()
			return nil, err
		}
		svc.Start()
		srv := httptest.NewServer(svc.Handler())
		f.svcs = append(f.svcs, svc)
		f.shardSrvs = append(f.shardSrvs, srv)
		f.spools = append(f.spools, spool)
		agent := &fabric.Agent{
			Svc:      svc,
			Gateway:  gw.ControlAddr(),
			Name:     fmt.Sprintf("shard%d", i),
			HTTPAddr: strings.TrimPrefix(srv.URL, "http://"),
			Capacity: 1,
			ParkDir:  service.ParkedDir(spool),
			Logf:     logf,
		}
		f.agents.Add(1)
		go func() {
			defer f.agents.Done()
			agent.Run(f.stop)
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(gw.Shards()) < fleetShards {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet: shards did not register within 30s")
		}
		// Registration takes a few milliseconds; poll finely so as not
		// to round it up.
		time.Sleep(20 * time.Microsecond)
	}
	return f, nil
}

// close stops the agents, drains the shards, and shuts down every
// server, waiting for each.
func (f *fleet) close() {
	close(f.stop)
	f.agents.Wait()
	for _, svc := range f.svcs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = svc.Shutdown(ctx) // a timeout leaves only this run's temp files behind
		cancel()
	}
	for _, srv := range f.shardSrvs {
		srv.Close()
	}
	f.gwSrv.Close()
	f.gw.Close()
}

// jobRec is one submission as a client saw it.
type jobRec struct {
	k      int
	client int
	spec   service.JobSpec
	repeat bool
	traced bool
	span   int

	id         string
	rejected   int
	submit     time.Duration // the accepted POST's round trip
	t0, first  time.Time     // submitted; first poll showing step ≥ 1
	done       time.Time     // first poll showing a terminal state
	final      fabric.GwStatus
	result     []byte
	replay     time.Duration // 0 when the chain was not read back
	replayMeta []frames.Meta
	err        error
}

func (r *jobRec) executed() bool { return !r.final.Cached && !r.final.Coalesced }

// loadGen is the closed-loop client population.
type loadGen struct {
	plan   jobPlan
	base   string
	client *http.Client
	gw     *fabric.Gateway
	tr     *tracer

	mu       sync.Mutex
	resume   *sync.Cond // signalled when a heap pause ends
	next     int        // submissions so far
	executed int        // jobs a shard ran
	inflight int        // jobs a client is driving
	finished int
	paused   bool    // clients wait before submitting while set
	heap     float64 // live heap after the fleetHeapJobs-th finished job
	journal  int64   // journal bytes written, summed over growth between samples
	lastSize int64
}

// runWindow drives fleetClients closed-loop clients until the deadline
// has passed and at least fleetHeapJobs jobs have been submitted, letting
// each client finish its job in flight; it returns the jobs finished and
// the window's length.
func (l *loadGen) runWindow(secs float64) ([]*jobRec, time.Duration) {
	start := time.Now()
	until := start.Add(time.Duration(secs * float64(time.Second)))
	var wg sync.WaitGroup
	recs := make([][]*jobRec, fleetClients)
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(recs[c]) == 0 || time.Now().Before(until) || l.submitted() < fleetHeapJobs {
				recs[c] = append(recs[c], l.runJob(c))
			}
		}()
	}
	wg.Wait()
	var all []*jobRec
	for _, r := range recs {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	return all, time.Since(start)
}

func (l *loadGen) submitted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// runJob submits one job, polls it to a terminal state, fetches its
// result and, for every fleetReplayEvery-th executed job, replays its
// frame chain.
func (l *loadGen) runJob(c int) *jobRec {
	l.mu.Lock()
	for l.paused {
		l.resume.Wait()
	}
	k := l.next
	l.next++
	l.inflight++
	l.mu.Unlock()
	spec, repeat := l.plan.spec(k)
	// In a traced run every other submission is traced, so traced and
	// untraced jobs share the window and the host's speed drift.
	r := &jobRec{k: k, client: c, spec: spec, repeat: repeat, traced: l.tr != nil && k%2 == 0}
	var tr *tracer
	if r.traced {
		tr = l.tr
	}
	track := fmt.Sprintf("client-%d", c)
	r.t0 = time.Now()
	r.span = tr.begin("client.job", track, "", 0)
	r.err = l.drive(r, tr, track)
	tr.end(r.span)
	if r.err == nil && r.executed() {
		l.mu.Lock()
		l.executed++
		replay := l.executed%fleetReplayEvery == 0
		l.mu.Unlock()
		if replay {
			id := tr.begin("frames.replay", track, r.id, 0)
			t := time.Now()
			var stream []byte
			stream, r.err = l.get(r.id+"/frames", "application/octet-stream")
			r.replay = time.Since(t)
			tr.end(id)
			if r.err == nil {
				r.replayMeta, r.err = checkReplay(stream, r.spec.Steps, r.result)
			}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.gw.Metrics().JournalBytes.Load()
	if size < l.lastSize {
		l.lastSize = 0 // compaction rewrote the journal as one snapshot of this size
	}
	l.journal += size - l.lastSize
	l.lastSize = size
	l.inflight--
	l.finished++
	if l.finished == fleetHeapJobs {
		l.paused = true
	}
	if l.paused && l.inflight == 0 {
		l.mu.Unlock()
		heap := liveHeap()
		l.mu.Lock()
		l.heap = heap
		l.paused = false
		l.resume.Broadcast()
	}
	return r
}

// drive submits r's spec (retrying 429s after their Retry-After), polls
// to a terminal state and fetches the result.
func (l *loadGen) drive(r *jobRec, tr *tracer, track string) error {
	body, err := json.Marshal(r.spec)
	if err != nil {
		return err
	}
	for {
		id := tr.begin("fabric.submit", track, "", r.span)
		t := time.Now()
		req, err := http.NewRequest(http.MethodPost, l.base+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", fmt.Sprintf("tenant%d", r.client))
		resp, err := l.client.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.submit = time.Since(t)
		tr.end(id)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			r.rejected++
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		if err := json.Unmarshal(data, &r.final); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		break
	}
	r.id = r.final.ID
	for !r.final.State.Terminal() {
		time.Sleep(fleetPoll)
		data, err := l.get(r.id, "")
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &r.final); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if r.first.IsZero() && progressStep(r.final.Progress) >= 1 {
			r.first = time.Now()
		}
	}
	r.done = time.Now()
	if r.final.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", r.id, r.final.State, r.final.Error)
	}
	id := tr.begin("fabric.result", track, r.id, r.span)
	r.result, err = l.get(r.id+"/result", "")
	tr.end(id)
	return err
}

// get fetches /api/v1/jobs/<path> from the gateway.
func (l *loadGen) get(path, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, l.base+"/api/v1/jobs/"+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// progress is the part of a job's progress record the clients read.
type progress struct {
	Step        int                `json:"step"`
	MachineTime float64            `json:"machine_time"`
	Efficiency  float64            `json:"efficiency"`
	Phases      map[string]float64 `json:"phases"`
}

func progressStep(raw json.RawMessage) int {
	var p progress
	if len(raw) == 0 || json.Unmarshal(raw, &p) != nil {
		return 0
	}
	return p.Step
}

// checkReplay decodes a binary /frames replay (the file magic followed
// by one keyframe record per step) and checks it holds steps 1..steps
// with the last frame's positions equal to the result's final bodies.
func checkReplay(stream []byte, steps int, result []byte) ([]frames.Meta, error) {
	if !bytes.HasPrefix(stream, frames.Magic()) {
		return nil, errors.New("replay: missing frame-stream magic")
	}
	rest := stream[len(frames.Magic()):]
	var metas []frames.Meta
	var last *frames.Frame
	for len(rest) > 0 {
		if len(rest) < 9 {
			return nil, errors.New("replay: truncated record")
		}
		n := 5 + int(binary.LittleEndian.Uint32(rest)) + 4
		if n > len(rest) {
			return nil, errors.New("replay: truncated record")
		}
		f, err := frames.DecodeKeyframe(rest[:n])
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rest = rest[n:]
		if f.Meta.Step != int64(len(metas)+1) {
			return nil, fmt.Errorf("replay: frame %d carries step %d", len(metas), f.Meta.Step)
		}
		metas = append(metas, f.Meta)
		last = f
	}
	if len(metas) != steps {
		return nil, fmt.Errorf("replay: %d frames, want %d", len(metas), steps)
	}
	var res service.Result
	if err := json.Unmarshal(result, &res); err != nil {
		return nil, fmt.Errorf("replay: decoding result: %w", err)
	}
	p := &last.Parts
	for i, id := range p.ID {
		if int(id) >= len(res.Bodies) ||
			!sameVec(res.Bodies[id].Pos, vec.V3{X: p.PosX[i], Y: p.PosY[i], Z: p.PosZ[i]}) {
			return nil, fmt.Errorf("replay: last frame differs from the result at particle %d", id)
		}
	}
	return metas, nil
}

// sameResult compares two encoded job results the way the repository's
// fleet goldens do (DESIGN.md §11): every field byte for byte except
// machine_time. Function shipping's simulated waiting time depends on
// host scheduling (internal/parbh/host_determinism_test.go), so that one
// field is not reproducible; it only has to be positive.
func sameResult(want, got []byte) error {
	var w, g map[string]json.RawMessage
	if err := json.Unmarshal(want, &w); err != nil {
		return err
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return err
	}
	if len(w) != len(g) {
		return fmt.Errorf("%d fields, want %d", len(g), len(w))
	}
	for k, wv := range w {
		gv, ok := g[k]
		switch {
		case !ok:
			return fmt.Errorf("field %s missing", k)
		case k == "machine_time":
			var m float64
			if json.Unmarshal(gv, &m) != nil || !(m > 0) {
				return fmt.Errorf("machine_time %s is not a positive number", gv)
			}
		case !bytes.Equal(wv, gv):
			return fmt.Errorf("field %s differs", k)
		}
	}
	return nil
}

// replicate runs spec in-process with the public Simulation API and
// encodes the result exactly as a shard reports it. It also returns the
// relative force errors of the final evaluation on a seeded sample.
func replicate(spec service.JobSpec, seed int64) ([]byte, []float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		return nil, nil, err
	}
	var machine float64
	for i := 0; i < spec.Steps; i++ {
		machine += sim.Step().SimTime
	}
	bodies := sim.Bodies()
	data, err := json.Marshal(&service.Result{
		Steps: spec.Steps, SimTime: sim.Time(), MachineTime: machine,
		KineticEnergy: sim.KineticEnergy(), Bodies: bodies,
	})
	if err != nil {
		return nil, nil, err
	}
	accels := sim.LastResult().Accels
	idx := sampleIndices(len(bodies), errSample, seed)
	approx := make([]vec.V3, len(idx))
	for k, i := range idx {
		approx[k] = accels[i]
	}
	return data, forceErrors(bodies, idx, approx, spec.Eps), nil
}

func runFleet(cfg config, tr *tracer) (*outcome, error) {
	n, steps := fleetN, fleetSteps
	if cfg.tiny {
		n, steps = 200, 3
	}
	root, err := os.MkdirTemp(cfg.tmpDir, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	out := newOutcome()

	transport := &http.Transport{MaxIdleConnsPerHost: 2 * fleetClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}

	// Set-up is a cold start: from starting a fleet until the result of
	// its first job is in hand, as the simulations' set-up includes their
	// first step. Registration alone takes a few milliseconds, mostly
	// file creation and loopback connections, and its median over a run
	// moved by more than a quarter from one set of runs to the next. Each set-up
	// uses a fleet of its own, so the window's fleet holds only the
	// window's jobs.
	var setups []float64
	if tr == nil {
		for i := 0; i < 3*setupRepeats; i++ {
			t0 := time.Now()
			f, err := startFleet(filepath.Join(root, fmt.Sprintf("setup%d", i)))
			if err != nil {
				return nil, err
			}
			r := &jobRec{spec: fleetSpec(n, steps, cfg.seed*100_000)}
			err = (&loadGen{base: f.gwSrv.URL, client: client}).drive(r, nil, "")
			setups = append(setups, time.Since(t0).Seconds())
			f.close()
			out.checks.check(err == nil, "fleet-jobs: set-up %d's first job: %v", i, err)
		}
	}
	f, err := startFleet(filepath.Join(root, "window"))
	if err != nil {
		return nil, err
	}
	defer f.close()
	l := &loadGen{
		plan:   jobPlan{seed: cfg.seed, n: n, steps: steps},
		base:   f.gwSrv.URL,
		client: client,
		gw:     f.gw,
		tr:     tr,
	}
	l.resume = sync.NewCond(&l.mu)

	jobs, elapsed := l.runWindow(cfg.seconds)

	// Output checks. Every accepted job must finish with a result, and
	// the gateway must know of exactly the jobs the clients submitted.
	leaders := make(map[string][]byte)
	var executed []*jobRec
	for _, r := range jobs {
		out.checks.check(r.err == nil, "fleet-jobs: submission %d: %v", r.k, r.err)
		if r.err == nil && r.executed() {
			executed = append(executed, r)
			if _, ok := leaders[r.final.Key]; !ok {
				leaders[r.final.Key] = r.result
			}
		}
	}
	out.checks.check(len(f.gw.Jobs()) == len(jobs), "fleet-jobs: gateway holds %d jobs, clients submitted %d", len(f.gw.Jobs()), len(jobs))
	for _, r := range jobs {
		if r.err == nil && !r.executed() {
			leader, ok := leaders[r.final.Key]
			out.checks.check(ok && bytes.Equal(leader, r.result), "fleet-jobs: %s result of job %s differs from its leader's", cacheKind(r), r.id)
		}
	}
	if len(executed) == 0 {
		return nil, errors.New("fleet-jobs: no job ran on a shard")
	}
	var errs []float64
	for _, r := range executed {
		if r.k >= fleetVerifyFrom {
			continue
		}
		want, e, err := replicate(r.spec, cfg.seed)
		if err != nil {
			return nil, err
		}
		errs = append(errs, e...)
		err = sameResult(want, r.result)
		out.checks.check(err == nil, "fleet-jobs: routed result of job %s differs from the in-process run: %v", r.id, err)
	}
	errRMS := rms(errs)
	out.checks.check(errRMS < fleetErrCeiling, "fleet-jobs: force_err_rms %.4g exceeds ceiling %g", errRMS, fleetErrCeiling)

	if tr == nil {
		var machine, effs []float64
		for _, r := range executed {
			var p progress
			if err := json.Unmarshal(r.final.Progress, &p); err == nil && p.Step > 0 {
				machine = append(machine, p.MachineTime/float64(p.Step))
				effs = append(effs, p.Efficiency)
			}
		}
		// Latency is that of the jobs a shard ran: cache hits and
		// coalesced followers, a third of the submissions, finish in a
		// poll or two and would set the quantile by how many of them a
		// run happens to hold.
		out.values["setup_s"] = median(setups)
		out.values["latency_s_p10"] = quantile(latencies(executed), latencyQuantile)
		out.values["live_heap_bytes"] = l.heap
		out.values["force_err_rms"] = errRMS
		out.values["force_err_p99"] = quantile(errs, 0.99)
		out.values["sim_step_s"] = mean(machine)
		out.values["sim_efficiency"] = mean(effs)
		return out, nil
	}
	fleetLayers(out, l, f, jobs, executed)
	out.values["fleet.jobs_per_s"] = float64(len(jobs)) / elapsed.Seconds()
	return out, nil
}

func cacheKind(r *jobRec) string {
	if r.final.Cached {
		return "cached"
	}
	return "coalesced"
}

// latencies returns each job's submit-to-done time in seconds.
func latencies(jobs []*jobRec) []float64 {
	var out []float64
	for _, r := range jobs {
		if !r.done.IsZero() {
			out = append(out, r.done.Sub(r.t0).Seconds())
		}
	}
	return out
}

// fleetLayers fills the fleet's per-layer metrics from the client's own
// timings and the gateway and shard status timestamps, and records the
// server-side intervals of traced jobs as spans.
func fleetLayers(out *outcome, l *loadGen, f *fleet, jobs, executed []*jobRec) {
	shard := make(map[string]service.Status)
	for _, svc := range f.svcs {
		for _, st := range svc.Jobs() {
			shard[st.Spec.CacheKey()] = st
		}
	}
	var submit, first, dispatch, queue, runS, ret, replay []float64
	var repeats, shared, rejected int
	for _, r := range jobs {
		submit = append(submit, r.submit.Seconds())
		if !r.first.IsZero() {
			first = append(first, r.first.Sub(r.t0).Seconds())
		}
		if r.repeat {
			repeats++
		}
		if !r.executed() {
			shared++
		}
		rejected += r.rejected
		if r.replay > 0 {
			replay = append(replay, r.replay.Seconds())
		}
	}
	for _, r := range executed {
		gw, err := f.gw.Get(r.id)
		st, ok := shard[r.final.Key]
		if err != nil || !ok {
			continue
		}
		dispatch = append(dispatch, st.Created.Sub(gw.Created).Seconds())
		queue = append(queue, st.Started.Sub(st.Created).Seconds())
		runS = append(runS, st.Finished.Sub(st.Started).Seconds())
		ret = append(ret, r.done.Sub(st.Finished).Seconds())
		if r.traced {
			track := fmt.Sprintf("client-%d server", r.client)
			l.tr.record("fabric.dispatch_wait", track, r.id, r.span, gw.Created, st.Created)
			l.tr.record("service.queue_wait", track, r.id, r.span, st.Created, st.Started)
			l.tr.record("service.run", track, r.id, r.span, st.Started, st.Finished)
			l.tr.record("fabric.return", track, r.id, r.span, st.Finished, r.done)
		}
	}
	sums := make(map[string]float64)
	var frameSteps float64
	for _, r := range executed {
		for _, m := range r.replayMeta {
			frameSteps++
			sums["tree.interactions"] += float64(m.PC + m.PP)
			sums["tree.mac_tests"] += float64(m.MACTests)
			sums["msg.words_per_step"] += float64(m.CommWords)
			sums["partition.imbalance"] += m.Imbalance
		}
		var p progress
		if json.Unmarshal(r.final.Progress, &p) == nil {
			for phase, name := range phaseMetrics {
				sums[name] += p.Phases[phase] / float64(len(executed))
			}
		}
	}
	var traced, untraced, ranUntraced []*jobRec
	for _, r := range jobs {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	for _, r := range executed {
		if !r.traced {
			ranUntraced = append(ranUntraced, r)
		}
	}
	v := out.values
	for name, s := range sums {
		if strings.HasPrefix(name, "parbh.") {
			v[name] = s
		} else if frameSteps > 0 {
			v[name] = s / frameSteps
		}
	}
	var diskBytes int64
	for _, dir := range f.spools {
		if sp, err := service.NewSpool(dir); err == nil {
			diskBytes += sp.FramesBytes()
		}
	}
	v["fabric.submit_s_p50"] = median(submit)
	v["fabric.dispatch_wait_s_p50"] = median(dispatch)
	v["fabric.journal_bytes_per_job"] = float64(l.journal) / float64(len(jobs))
	v["fabric.return_s_p50"] = median(ret)
	v["fabric.cache_hit_ratio"] = float64(shared) / float64(len(jobs))
	v["fabric.repeat_share"] = float64(repeats) / float64(len(jobs))
	v["fabric.rejected_429"] = float64(rejected)
	v["service.queue_wait_s_p50"] = median(queue)
	v["service.run_s_p50"] = median(runS)
	v["frames.bytes_per_step"] = float64(diskBytes) / float64(len(executed)*executed[0].spec.Steps)
	v["frames.replay_s_p50"] = median(replay)
	v["fleet.latency_s_p90"] = quantile(latencies(jobs), 0.9)
	v["fleet.first_step_s_p50"] = median(first)
	v["host.latency_s_p10"] = quantile(latencies(ranUntraced), latencyQuantile)
	v["trace_overhead_frac"] = median(latencies(traced))/median(latencies(untraced)) - 1
}
