package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricTablesMatchBenchmarkFile pins the metric names, units and
// workloads the program reports to the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayerDefs(), f.PerLayer)
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that the correctness gate passes and that every metric of the
// mode appears with its unit in the JSON line.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: name, seed: 5, seconds: 1, trace: trace, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			line, err := render(res, trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%t: correct %t, attempted %d, failed %d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayerDefs()
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, d.name)
				}
			}
		}
	}
}
