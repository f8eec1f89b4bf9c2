package bench

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/seed"
)

// E9 measures the concurrent lock-scoped check-in path (DESIGN.md section
// 8): check-in throughput against writer count on disjoint lock sets, with
// commits coalescing into shared fsyncs in the group-commit write-ahead
// log. The database is file-backed with SyncGroupCommit, so every check-in
// pays for real durability. Numbers are reported (and exported as
// BENCH_E9.json by cmd/seedbench). The serialized global write gate the
// concurrent path replaced is retired; the gate reads its committed rates
// instead (e9SerializedPerSec).

// e9SerializedPerSec is the committed serialized-gate baseline: check-ins/s
// per writer count (BENCH_E9.json, runs with mode "serialized").
var e9SerializedPerSec = map[int]float64{
	1: 2680.4375396135165, 2: 3223.710727667913, 4: 3172.836257345195,
	8: 3522.26017800006, 16: 3164.049287313323,
}

// CheckinWorkload sizes the E9 writer-scaling measurement.
type CheckinWorkload struct {
	Writers     []int // writer-client counts to sweep
	CheckinsPer int   // check-ins per writer at each width
}

// DefaultCheckinWorkload is the standard E9 size.
var DefaultCheckinWorkload = CheckinWorkload{Writers: []int{1, 2, 4, 8, 16}, CheckinsPer: 50}

// ShortCheckinWorkload keeps the CI smoke run cheap.
var ShortCheckinWorkload = CheckinWorkload{Writers: []int{1, 2, 4}, CheckinsPer: 12}

// E9RunStats is the machine-readable result of one writer-count cell.
type E9RunStats struct {
	Mode         string  `json:"mode"` // always "concurrent"
	Writers      int     `json:"writers"`
	Checkins     int     `json:"checkins"`
	ElapsedNanos int64   `json:"elapsed_ns"`
	Throughput   float64 `json:"checkins_per_sec"`
}

// E9Data is the BENCH_E9.json payload.
type E9Data struct {
	Experiment        string       `json:"experiment"`
	GoVersion         string       `json:"go"`
	CPUs              int          `json:"cpus"`
	CheckinsPerWriter int          `json:"checkins_per_writer"`
	Runs              []E9RunStats `json:"runs"`
	// ConcurrentScaling4W compares concurrent throughput at 4 writers
	// against 1 writer: does adding writers add throughput at all?
	ConcurrentScaling4W float64 `json:"concurrent_scaling_4w"`
}

// runCheckinWave drives n writer clients against disjoint roots Obj0..n-1,
// each performing per checkout→update→check-in cycles, and returns the
// elapsed wall time.
func runCheckinWave(addr string, n, per int) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			name := fmt.Sprintf("Obj%d", w)
			for i := 0; i < per; i++ {
				ws, err := c.Checkout(name)
				if err != nil {
					errs[w] = fmt.Errorf("writer %d checkout %d: %w", w, i, err)
					return
				}
				ws.SetValue(name+".Description", uint8(seed.KindString), fmt.Sprintf("w%d-i%d", w, i))
				if err := ws.Commit(); err != nil {
					errs[w] = fmt.Errorf("writer %d checkin %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// measureCheckins runs one writer-count cell against a fresh file-backed
// database under SyncGroupCommit.
func measureCheckins(writers, per int) (E9RunStats, error) {
	st := E9RunStats{Mode: "concurrent", Writers: writers, Checkins: writers * per}
	runtime.GC() // keep earlier experiments' garbage out of this cell
	dir, err := os.MkdirTemp("", "seed-e9-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	db, err := seed.Open(dir, seed.Options{Schema: seed.Figure3Schema(), SyncPolicy: seed.SyncGroupCommit})
	if err != nil {
		return st, err
	}
	defer db.Close()
	for w := 0; w < writers; w++ {
		id, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", w))
		if err != nil {
			return st, err
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString("init")); err != nil {
			return st, err
		}
	}
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	defer srv.Close()

	// Unmeasured warm-up: connection setup, first snapshot freeze, first
	// WAL fsyncs — none of it belongs to the steady-state number.
	if _, err := runCheckinWave(addr, writers, 3); err != nil {
		return st, err
	}
	elapsed, err := runCheckinWave(addr, writers, per)
	if err != nil {
		return st, err
	}
	st.ElapsedNanos = int64(elapsed)
	st.Throughput = float64(st.Checkins) / elapsed.Seconds()
	return st, nil
}

// E9 runs the standard workload.
func E9() *Result {
	r, _ := E9Stats(DefaultCheckinWorkload)
	return r
}

// E9Stats sweeps writer counts and returns the report plus the
// machine-readable data.
func E9Stats(w CheckinWorkload) (*Result, *E9Data) {
	r := &Result{Name: "E9: check-ins — lock-scoped concurrency and writer scaling"}
	data := &E9Data{
		Experiment:        "E9",
		GoVersion:         runtime.Version(),
		CPUs:              runtime.NumCPU(),
		CheckinsPerWriter: w.CheckinsPer,
	}
	r.logf("workload: %d check-ins per writer, disjoint lock sets, file-backed, group-committed fsync per check-in",
		w.CheckinsPer)
	tp := map[int]float64{}
	for _, n := range w.Writers {
		st, err := measureCheckins(n, w.CheckinsPer)
		if err != nil {
			r.assert(false, "%d writers: %v", n, err)
			return r, data
		}
		data.Runs = append(data.Runs, st)
		tp[n] = st.Throughput
		r.logf("%d writers: %4d check-ins in %8v (%6.0f/s)",
			n, st.Checkins, time.Duration(st.ElapsedNanos).Round(time.Millisecond), st.Throughput)
	}
	maxW := w.Writers[len(w.Writers)-1]
	pivot := 4
	if tp[pivot] == 0 {
		pivot = maxW
	}
	data.ConcurrentScaling4W = tp[pivot] / tp[w.Writers[0]]
	r.logf("at %d writers: %.1fx over 1 concurrent writer", pivot, data.ConcurrentScaling4W)
	// The measured writer scaling is recorded in EXPERIMENTS.md and
	// BENCH_E9.json. Wall-clock ratios are reported, not gated — on a noisy
	// container the rate at a single width jitters across runs — so the
	// in-repo assertion only rejects a catastrophic regression: concurrent
	// check-ins at full width must stay within noise of the committed
	// serialized-gate rate at that width. That rate was measured on an
	// uninstrumented build, so a race-detector build (several times
	// slower per check-in) reports the comparison without gating on it.
	serial, ok := e9SerializedPerSec[maxW]
	r.assert(ok, "committed serialized-gate rate exists for %d writers", maxW)
	switch {
	case !ok:
	case raceDetector:
		r.logf("race detector on: not gating %d writers (%.0f/s) against the committed serialized gate (%.0f/s)",
			maxW, tp[maxW], serial)
	default:
		r.assert(tp[maxW] >= 0.7*serial,
			"concurrent check-ins at %d writers (%.0f/s) >= 0.7x the committed serialized gate (%.0f/s)",
			maxW, tp[maxW], serial)
	}
	return r, data
}
