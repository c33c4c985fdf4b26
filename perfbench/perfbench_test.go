package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig shrinks every workload to a size that runs in about a
// second, with one pass per loop.
func tinyConfig(t *testing.T, seed uint64) config {
	t.Helper()
	c := defaultConfig(seed, 0.001, t.TempDir())
	c.cap, c.fleetCap = 5, 5
	c.exploreRuns, c.exploreBudget, c.scarceBudget, c.crashBudget = 2, 16, 4, 16
	c.setupReps = 1
	var err error
	if c.digests, err = loadDigests(".."); err != nil {
		t.Fatal(err)
	}
	if c.scarceGolden, err = os.ReadFile(filepath.Join("..", "testdata", "scarcesweep-golden.json")); err != nil {
		t.Fatal(err)
	}
	return c
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayerUnits map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayerUnits = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayerUnits, names
}

// sameMetrics fails unless got holds exactly the declared metrics, each
// with its declared unit.
func sameMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
			continue
		}
		if m.Unit != unit || m.Unit == "" {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is emitted but not declared", name)
		}
	}
}

// TestEveryMetricEmitted is the smoke check: at a tiny size every
// declared workload runs correctly, untraced and traced, and emits
// exactly the declared metrics with their units.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, layers, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	if len(layers) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the benchmark has %d", len(layers), len(perLayer))
	}
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares unknown workload %q", name)
		}
		t.Run(name, func(t *testing.T) {
			c := tinyConfig(t, 3)
			res, err := runMeasured(context.Background(), w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			sameMetrics(t, res.Metrics, endToEnd)

			trace := filepath.Join(c.work, "trace.jsonl")
			res, err = runTraced(context.Background(), w, c, trace)
			if err != nil {
				t.Fatal(err)
			}
			// runTraced checks the traced outputs against the untraced
			// ones, so a correct result is the pure-observation check.
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
			}
			sameMetrics(t, res.Metrics, layers)
			if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
				t.Errorf("traced run wrote no spans to %s (%v)", trace, err)
			}
		})
	}
}

// TestCorruptedOutputCounted: an output that no longer matches its
// digest fails every unit of the pass that produced it.
func TestCorruptedOutputCounted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := tinyConfig(t, 3)
			victim := ""
			if w.name == "sweeps" {
				// Only the seed-7 full scarce sweep has a golden to miss.
				c.seed, c.scarceBudget, victim = 7, 0, "scarce.json"
			}
			c.corrupt = func(name string, data []byte) []byte {
				if victim != "" && name != victim {
					return data
				}
				out := append([]byte(nil), data...)
				out[len(out)/2] ^= 0x20
				return out
			}
			res, err := runMeasured(context.Background(), w, c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
				t.Fatalf("corrupted run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// TestPrintedSummaryIsLastLine checks the output contract: the last
// line is one JSON object with exactly the four summary keys.
func TestPrintedSummaryIsLastLine(t *testing.T) {
	res := &result{summary: summary{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {0.5, "s"}}}}
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line has keys %v", last)
	}
}

// TestCommittedDigestsCoverDefaults: at the committed sizes every
// output with a reference has one in digests.json, so the benchmark
// never runs its default configuration unchecked.
func TestCommittedDigestsCoverDefaults(t *testing.T) {
	d, err := loadDigests("..")
	if err != nil {
		t.Fatal(err)
	}
	c := defaultConfig(7, 1, "")
	for _, key := range []string{
		campaignKey("csv", c.cap), campaignKey("report", c.cap),
		sweepKey("explore", &c), sweepKey("crash", &c),
	} {
		if _, ok := d[key]; !ok {
			t.Errorf("digests.json has no %s", key)
		}
	}
}
