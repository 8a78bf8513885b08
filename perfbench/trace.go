package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public entry points. Parent is the id of the span that
// caused it (0 for a root); Track groups the spans of one timeline (the
// workload, a client, or a client's server-side view). End is negative
// while the span is open.
type span struct {
	ID, Parent int
	Name       string
	Track      string
	Job        string // job id for fleet spans, empty otherwise
	Start, End time.Duration
}

// Dur is the span's wall duration.
func (s span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run and writes them
// out once at exit. A nil *tracer records nothing, so untraced runs pay
// one pointer test per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, track, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Track: track, Job: job, Start: now.Sub(t.epoch), End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now.Sub(t.epoch)
}

// record adds a span whose interval was observed elsewhere, such as a
// gateway or shard status timestamp pair.
func (t *tracer) record(name, track, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Track: track, Job: job,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// snapshot returns a copy of every closed span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span id to its self time: the span's duration
// minus the part of its interval that its child spans cover. Children
// may overlap one another or stick out of the parent; only the union of
// their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// chromeEvent is one Chrome trace-event ("X" complete event), the JSON
// form Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every closed span as Chrome trace JSON, one thread
// track per span Track, named through thread_name metadata events.
func (t *tracer) writeChrome(path string) error {
	spans := t.snapshot()
	tids := make(map[string]int)
	var events []any
	for _, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": s.Track},
			})
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Job != "" {
			args["job"] = s.Job
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
