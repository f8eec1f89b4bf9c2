// Command perfbench is the SEED server benchmark. It builds one generated
// database (the paper's Figure 3 schema, 50,000 Data objects), serves it on
// loopback, drives one workload through the client API for a fixed time,
// checks every result against the generator's model, and prints the
// metrics as the last line of its standard output:
//
//	perfbench --workload browse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end numbers a SEED tool sees.
// With --trace 1 the same workload and seed runs once untraced and once
// traced, and the metrics are per-layer numbers derived from spans the
// benchmark records around its calls into each layer; the difference
// between the two runs is the tracing overhead. The line before the
// metrics records the run's context (Go version, GOMAXPROCS, nproc,
// commit or a digest of the sources, seed, dataset sizes) and the
// latencies split by op kind.
//
// Databases are built under .bench_build/data and span files written to
// .bench_build/trace, relative to the working directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	dataset   Dataset
	workDir   string // database directories are created under it
	traceDir  string // span files are written to it
	setupReps int    // set-ups per run; setup_s is their median
	probeOps  int    // in-process samples per layer probe (traced run)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is a latency split by op kind, with its sample count and the
// percentile its tail was taken at.
type detail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// report is everything one run prints.
type report struct {
	Context  map[string]any    `json:"context"`
	Detail   map[string]detail `json:"detail"`
	Overhead map[string]detail `json:"trace_overhead,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Result   result            `json:"-"`
}

func main() {
	cfg := config{
		dataset: FullDataset, setupReps: 3, probeOps: 100,
		workDir: filepath.Join(".bench_build", "data"), traceDir: filepath.Join(".bench_build", "trace"),
	}
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: browse, edit, mixed or replicate")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op streams")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0
	if _, ok := specOf(cfg.workload); !ok || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	ctx, err := json.Marshal(rep)
	if err == nil {
		fmt.Println(string(ctx))
	}
	last, lerr := json.Marshal(rep.Result)
	if err != nil || lerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err, lerr)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which ties a result to the code it measured where the checkout
// carries no commit.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build and the like
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runContext records what a result depends on besides the code.
func runContext(cfg config, spec workloadSpec, ds *Dataset) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"source":     sourceDigest(),
		"dataset": map[string]int{
			"data_objects": ds.Objects, "actions": ds.actions, "items": ds.Items(),
			"tags": ds.Tags, "days": ds.Days,
		},
		"tail_pct":   spec.tailPct,
		"setup_reps": cfg.setupReps,
		"sync":       "group-commit",
	}
}

// run sets up, runs the workload, checks it and measures recovery.
func run(cfg config) (*report, error) {
	spec, ok := specOf(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	base, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var setups, bootstraps []float64
	var e *env
	for r := 0; r < cfg.setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		next, err := setup(cfg, spec, filepath.Join(base, fmt.Sprintf("db%d", r)))
		if err != nil {
			if e != nil {
				e.shutdown()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if next.rep != nil {
			bootstraps = append(bootstraps, next.rep.bootstrap.Seconds())
		}
		if e != nil {
			e.shutdown()
			os.RemoveAll(e.dir)
		}
		e = next
	}
	defer e.shutdown()
	e.bootstraps = bootstraps

	rep := &report{Context: runContext(cfg, spec, e.ds)}
	dirBefore, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	ph, err := e.runPhase(cfg.duration, nil)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	dirAfter, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(ph, spec.tailPct)
	e2e["setup_s"] = metric{medianFloat(setups), "s"}
	e2e["heap_mb"] = metric{heap, "MB"}
	rep.Detail = splitByKind(ph)
	if ph.checkins > 0 {
		rep.Detail["disk_bytes_per_checkin"] = detail{Value: float64(dirAfter-dirBefore) / float64(ph.checkins), Unit: "B", N: ph.checkins}
	}
	rep.Problems = append(rep.Problems, ph.problems...)
	attempted, failed := ph.attempted, ph.failed

	var layers map[string]metric
	if cfg.trace {
		tr := newTracer()
		traced, probes, lm, err := e.measureLayers(tr, ph)
		if err != nil {
			return nil, err
		}
		layers = lm
		for _, p := range []*phase{traced, probes} {
			rep.Problems = append(rep.Problems, p.problems...)
			attempted += p.attempted
			failed += p.failed
		}
		rep.Overhead = overhead(ph, traced)
		if err := tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.tsv", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	rep.Problems = append(rep.Problems, e.finalChecks()...)

	recovery, probs, err := e.recover()
	if err != nil {
		return nil, err
	}
	rep.Problems = append(rep.Problems, probs...)
	rep.Detail["recovery_s"] = detail{Value: recovery, Unit: "s"}

	rep.Result = result{Correct: len(rep.Problems) == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if cfg.trace {
		rep.Result.Metrics = layers
	}
	return rep, nil
}

// endToEnd returns the metrics a phase gives a user: throughput, the
// typical latency of the workload's op kinds and the tail of all its ops
// at the workload's tail percentile.
// The typical latency is the geometric mean of each kind's median, not the
// median of all ops pooled: where kinds differ by orders of magnitude (a
// Get against a check-in) the pooled median falls in the gap between them
// and jumps with the mix. Version saves are too few per run for a median
// and count only in the throughput and the pooled tail.
func endToEnd(ph *phase, tailPct float64) map[string]metric {
	logSum, kinds := 0.0, 0
	for k, l := range ph.lat {
		if opKind(k) != opSave && len(l) > 0 {
			logSum += math.Log(l.median(time.Microsecond))
			kinds++
		}
	}
	return map[string]metric{
		"ops_per_s":  {float64(ph.completed()) / ph.elapsed.Seconds(), "1/s"},
		"op_p50_us":  {math.Exp(logSum / float64(max(kinds, 1))), "us"},
		"op_tail_us": {ph.all().percentile(tailPct, time.Microsecond), "us"},
	}
}

// splitByKind returns the phase's latencies per op kind, under the names
// the benchmark's documentation uses; kinds the workload does not run are
// left out.
func splitByKind(ph *phase) map[string]detail {
	out := map[string]detail{}
	add := func(name string, l Latencies, unit time.Duration, unitName string, tail bool) {
		if len(l) == 0 {
			return
		}
		s := l.summarize(unit)
		if tail {
			out[name] = detail{Value: s.Tail, Unit: unitName, N: s.N, TailPct: s.TailPct}
		} else {
			out[name] = detail{Value: s.P50, Unit: unitName, N: s.N}
		}
	}
	add("get_p50_us", ph.lat[opGet], time.Microsecond, "us", false)
	add("get_p99_us", ph.lat[opGet], time.Microsecond, "us", true)
	add("query_eq_p50_us", ph.lat[opQueryEq], time.Microsecond, "us", false)
	add("query_range_p50_us", ph.lat[opQueryRange], time.Microsecond, "us", false)
	add("query_follow_p50_us", ph.lat[opQueryFollow], time.Microsecond, "us", false)
	var queries Latencies
	for _, k := range []opKind{opQueryEq, opQueryRange, opQueryFollow} {
		queries = append(queries, ph.lat[k]...)
	}
	add("query_p99_us", queries, time.Microsecond, "us", true)
	add("checkin_p50_ms", ph.lat[opEdit], time.Millisecond, "ms", false)
	add("checkin_p99_ms", ph.lat[opEdit], time.Millisecond, "ms", true)
	add("save_p50_ms", ph.lat[opSave], time.Millisecond, "ms", false)
	add("visible_lag_p50_us", ph.lag, time.Microsecond, "us", false)
	add("visible_lag_p99_us", ph.lag, time.Microsecond, "us", true)
	out["ops_per_s"] = detail{Value: float64(ph.completed()) / ph.elapsed.Seconds(), Unit: "1/s", N: ph.completed()}
	return out
}

// overhead is traced minus untraced, for every number both phases have.
func overhead(untraced, traced *phase) map[string]detail {
	a, b := splitByKind(untraced), splitByKind(traced)
	out := map[string]detail{}
	for name, d := range a {
		if t, ok := b[name]; ok {
			out[name] = detail{Value: t.Value - d.Value, Unit: d.Unit}
		}
	}
	return out
}

// finalChecks compares the primary's final state with the model, and on
// replicate the follower's state digest with the primary's.
func (e *env) finalChecks() []string {
	probs := e.model.checkState(e.db.View())
	if e.rep == nil {
		return probs
	}
	want, err := e.db.StateDigest()
	if err != nil {
		return append(probs, "primary digest: "+err.Error())
	}
	deadline := time.Now().Add(visibleTimeout)
	for {
		got, err := e.rep.db.StateDigest()
		if err == nil && got == want {
			return probs
		}
		if time.Now().After(deadline) {
			return append(probs, fmt.Sprintf("follower digest %.12s… differs from primary %.12s… (%v)", got, want, err))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recover closes the database, reopens it and checks the reopened state
// against the model: every acked check-in's last value must be read back.
// It returns the time seed.Open took, which replays the log.
func (e *env) recover() (float64, []string, error) {
	if err := e.shutdown(); err != nil {
		return 0, nil, fmt.Errorf("closing: %w", err)
	}
	runtime.GC()
	t0 := time.Now()
	db, err := seedOpen(e.dir)
	if err != nil {
		return 0, nil, fmt.Errorf("reopening: %w", err)
	}
	took := time.Since(t0).Seconds()
	var probs []string
	for _, p := range e.model.checkState(db.View()) {
		probs = append(probs, "after reopen: "+p)
	}
	return took, probs, db.Close()
}
