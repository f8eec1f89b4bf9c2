package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		max  float64
		want float64
	}{
		{0, 99, 50},
		{10, 99, 50},  // no percentile has 10 samples beyond it
		{20, 99, 50},  // p50 is rank 10: 10 beyond
		{39, 99, 50},  // p75 is rank 30: 9 beyond
		{40, 99, 75},  // p75 is rank 30: 10 beyond
		{100, 99, 90}, // p90 is rank 90: 10 beyond
		{199, 99, 90}, // p95 is rank 190: 9 beyond
		{200, 99, 95},
		{999, 99, 95}, // p99 is rank 990: 9 beyond
		{1000, 99, 99},
		{10000, 99, 99}, // p99.9 has 10 beyond, but the cap is p99
		{10000, 100, 99.9},
		{9999, 100, 99},
	} {
		if got := tailPercentile(c.n, c.max); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.max, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var l Latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, time.Duration(1001-i)*time.Microsecond)
	}
	s := l.summarize(time.Microsecond)
	if s.N != 1000 || s.P50 != 500 || s.Tail != 990 || s.TailPct != 99 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 tail=990 at p99", s)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check the program
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range b.Workloads {
		if i < len(workloadSpecs) && w.Name != workloadSpecs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadSpecs[i].name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayer) {
			l := perLayer[i]
			if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
				t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, l)
			}
		}
	}
}

// shortConfig runs a workload on the short dataset for one second.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, duration: time.Second, trace: trace,
		dataset: ShortDataset, workDir: t.TempDir(), traceDir: t.TempDir(),
		setupReps: 1, probeOps: 8,
	}
}

// TestShortWorkloads runs every workload briefly, untraced and traced, and
// fails when an output check fails, an op fails, or a metric BENCHMARK.json
// names is missing or has no unit.
func TestShortWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, spec := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			name := spec.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(shortConfig(t, spec.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				res := rep.Result
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, rep.Problems)
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
					if len(rep.Overhead) == 0 {
						t.Error("traced run reports no tracing overhead")
					}
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit == "" {
						t.Errorf("metric %s missing or without unit: %+v", m.Name, got)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestCheckStateCatchesMismatch makes sure the final-state check is not
// vacuous: a model that disagrees with the database must be reported.
func TestCheckStateCatchesMismatch(t *testing.T) {
	cfg := shortConfig(t, "edit", false)
	spec, _ := specOf("edit")
	e, err := setup(cfg, spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.shutdown()
	if probs := e.model.checkState(e.db.View()); len(probs) != 0 {
		t.Fatalf("fresh database disagrees with the model: %v", probs)
	}
	e.model.ack(e.model.enter(3, (e.ds.Tag[3]+1)%e.ds.Tags, e.ds.Day[3]))
	if probs := e.model.checkState(e.db.View()); len(probs) != 1 {
		t.Fatalf("checkState = %v, want one mismatch for D000003", probs)
	}
}

// TestOpStreamIsPure checks that the op stream depends only on workload
// and seed.
func TestOpStreamIsPure(t *testing.T) {
	ds := ShortDataset
	ds.generate()
	a, b := newBrowseStream(&ds, "browse", 3, 0), newBrowseStream(&ds, "browse", 3, 0)
	c := newBrowseStream(&ds, "browse", 4, 0)
	same := true
	for i := 0; i < 100; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("op %d differs between two streams of one seed: %+v vs %+v", i, x, y)
		}
		same = same && x == z
	}
	if same {
		t.Fatal("seeds 3 and 4 generate the same stream")
	}
}
