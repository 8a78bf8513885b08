package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with
// the metric tables.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkFile(t)
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: code has %+v, BENCHMARK.json %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
}

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced: every check passes and every metric is printed with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				tmp := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{
					"--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", trace,
					"--tiny", "--tmp", tmp, "--trace-out", filepath.Join(tmp, "trace.json"),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
					if !strings.Contains(stdout.String(), d.Name) {
						t.Errorf("metric %s not in the human-readable lines", d.Name)
					}
				}
				if trace == "1" {
					data, err := os.ReadFile(filepath.Join(tmp, "trace.json"))
					if err != nil {
						t.Fatal(err)
					}
					var doc struct{ TraceEvents []json.RawMessage }
					if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
						t.Errorf("trace file has no events (err %v)", err)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
