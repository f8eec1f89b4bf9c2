package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestPinnedBaselinesMatchArtifacts: the E8, E9 and E12 gates read retired
// baselines pinned from the committed BENCH artifacts; the pins must be the
// artifacts' numbers exactly.
func TestPinnedBaselinesMatchArtifacts(t *testing.T) {
	load := func(name string, v any) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	var e8 struct {
		Sizes []struct {
			Objects     int   `json:"objects"`
			RebuildNano int64 `json:"first_read_rebuild_ns"`
		} `json:"sizes"`
	}
	load("BENCH_E8.json", &e8)
	if s := e8.Sizes[0]; s.Objects != 1000 || s.RebuildNano != e8RebuildFirstReadNanos {
		t.Errorf("E8 rebuild pin %d, artifact %d at %d objects", e8RebuildFirstReadNanos, s.RebuildNano, s.Objects)
	}

	var e9 struct {
		Runs []struct {
			Mode       string  `json:"mode"`
			Writers    int     `json:"writers"`
			Throughput float64 `json:"checkins_per_sec"`
		} `json:"runs"`
	}
	load("BENCH_E9.json", &e9)
	serialized := map[int]float64{}
	for _, r := range e9.Runs {
		if r.Mode == "serialized" {
			serialized[r.Writers] = r.Throughput
		}
	}
	if len(serialized) != len(e9SerializedPerSec) {
		t.Errorf("E9 pins %d serialized rates, artifact has %d", len(e9SerializedPerSec), len(serialized))
	}
	for w, pin := range e9SerializedPerSec {
		if serialized[w] != pin {
			t.Errorf("E9 serialized pin at %d writers %v, artifact %v", w, pin, serialized[w])
		}
	}

	var e12 struct {
		Sizes []struct {
			Objects int          `json:"objects"`
			Map     E12ModeStats `json:"map"`
		} `json:"sizes"`
	}
	load("BENCH_E12.json", &e12)
	m := e12.Sizes[len(e12.Sizes)-1]
	if m.Objects != 1000000 || m.Map.BytesPerItem != e12MapBytesPerItem ||
		m.Map.FreezeMedianNanos != e12MapFreezeNanos || m.Map.QueryByClassNanos != e12MapByClassNanos {
		t.Errorf("E12 map pins (%d B, %d ns, %d ns) vs artifact at %d objects %+v",
			e12MapBytesPerItem, e12MapFreezeNanos, e12MapByClassNanos, m.Objects, m.Map)
	}
}
