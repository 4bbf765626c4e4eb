package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the program must honour.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// tiny shrinks a run to a few seconds: a 60-employee, 3-year history,
// short phases and a p99 floor of 100 samples.
func tiny(t *testing.T) config {
	c := defaultConfig()
	c.workdir = t.TempDir()
	c.employees, c.years = 30, 3
	c.seconds = 100 * time.Millisecond
	c.writeRate, c.replay, c.recoveries, c.minSamples = 1500, 75, 2, 100
	c.cycles = 1
	return c
}

// lastLine runs the benchmark and decodes its final JSON line.
func lastLine(t *testing.T, c config, w workload) line {
	t.Helper()
	var out bytes.Buffer
	if err := benchmark(&out, c, []workload{w}); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
	}
	return got
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w, ok := lookupWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		for _, trace := range []bool{false, true} {
			c := tiny(t)
			c.trace = trace
			got := lastLine(t, c, w)
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: missing %s", w.name, trace, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, g.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	c := tiny(t)
	c.corrupt = "q3"
	var out bytes.Buffer
	err := benchmark(&out, c, workloads[:1])
	if err == nil || !strings.Contains(err.Error(), "q3") {
		t.Fatalf("run with a corrupted q3 reference: err = %v, want a q3 mismatch", err)
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a failed run printed a result line:\n%s", out.String())
	}
}
