package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 40]; a third covers [60, 70].
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(40)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(60), End: ms(70)},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "a.inner", Start: ms(12), End: ms(18)},
		// A child sticking out of its parent is clipped to it.
		{ID: 6, Parent: 4, Name: "c.late", Start: ms(65), End: ms(90)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(60), 2: ms(14), 3: ms(20), 4: ms(5), 5: ms(6), 6: ms(25)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestCoveredHandlesNestedAndDisjointIntervals(t *testing.T) {
	kids := []span{
		{Start: ms(50), End: ms(60)},
		{Start: ms(0), End: ms(30)},
		{Start: ms(5), End: ms(10)},  // inside the previous one
		{Start: ms(80), End: ms(80)}, // empty
	}
	if got := covered(ms(0), ms(100), kids); got != ms(40) {
		t.Errorf("covered = %v, want 40ms", got)
	}
	if got := covered(ms(0), ms(100), nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

func TestTracerRecordsSpansAndWritesChromeJSON(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "t", "", 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0)

	tr := newTracer()
	root := tr.begin("client.job", "client-0", "", 0)
	child := tr.begin("fabric.submit", "client-0", "", root)
	tr.end(child)
	now := time.Now()
	tr.record("service.run", "client-0 server", "g1", root, now, now.Add(ms(3)))
	tr.begin("still.open", "client-0", "", 0)
	tr.end(root)

	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot has %d closed spans, want 3", len(spans))
	}
	if s := tr.get(child); s.Parent != root || s.End < s.Start {
		t.Errorf("child span %+v", s)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var complete, names int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			names++
		}
	}
	if complete != 3 || names != 2 {
		t.Errorf("trace has %d complete events and %d track names, want 3 and 2", complete, names)
	}
}
