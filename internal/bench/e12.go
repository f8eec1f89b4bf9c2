package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/seed"
)

// E12 measures the columnar item store (DESIGN.md section 11): live bytes
// per item, GC pause totals under commit churn, snapshot freeze latency,
// and by-class / by-name query latency, at each database size. The numbers
// are exported as BENCH_E12.json by cmd/seedbench. The map-backed ablation
// the store was first measured against is retired; the gates read its
// committed numbers at 1M objects instead (the e12Map* constants).

// The committed map-store baseline: BENCH_E12.json, sizes[1] (1,000,000
// objects), "map".
const (
	e12MapBytesPerItem   = 657   // bytes_per_item
	e12MapFreezeNanos    = 14063 // freeze_median_ns
	e12MapByClassNanos   = 18785 // query_by_class_ns
	e12MinBytesAdvantage = 3.0   // columnar must stay >= 3x smaller
)

// ColumnarWorkload sizes the E12 store comparison.
type ColumnarWorkload struct {
	Sizes     []int   // total independent objects per measured database
	QueryHits int     // objects of the queried class (fixed across sizes)
	CommitOps int     // operations per commit batch
	Commits   int     // measured commit -> first-read cycles
	QueryReps int     // repetitions of each query measurement
	NameReps  int     // by-name lookups per measurement
	MaxRegr   float64 // gated ceiling for freeze+query latency over the committed map baseline
}

// DefaultColumnarWorkload is the standard E12 size. The regression gate is
// the acceptance bound: the columnar store must stay within 10% of the
// committed map-store freeze and by-class query latency.
var DefaultColumnarWorkload = ColumnarWorkload{
	Sizes: []int{100000, 1000000}, QueryHits: 64,
	CommitOps: 8, Commits: 40, QueryReps: 20, NameReps: 4096, MaxRegr: 1.10,
}

// ShortColumnarWorkload keeps the CI smoke run cheap; tiny runs are noisy,
// so the regression gate is loosened to a sanity bound.
var ShortColumnarWorkload = ColumnarWorkload{
	Sizes: []int{5000, 20000}, QueryHits: 32,
	CommitOps: 8, Commits: 8, QueryReps: 4, NameReps: 1024, MaxRegr: 2.0,
}

// E12ModeStats is the machine-readable result of the store at one database
// size.
type E12ModeStats struct {
	BytesPerItem      int64 `json:"bytes_per_item"`
	GCPauseTotalNanos int64 `json:"gc_pause_total_ns"` // during the churn phase
	NumGC             int64 `json:"num_gc"`            // during the churn phase
	FreezeMedianNanos int64 `json:"freeze_median_ns"`  // first read after commit
	FreezeMeanNanos   int64 `json:"freeze_mean_ns"`
	QueryByClassNanos int64 `json:"query_by_class_ns"`
	QueryByNameNanos  int64 `json:"query_by_name_ns"`
}

// E12SizeStats is one database size.
type E12SizeStats struct {
	Objects  int          `json:"objects"`
	Items    int          `json:"items"` // objects + value sub-objects
	Columnar E12ModeStats `json:"columnar"`
}

// E12Data is the BENCH_E12.json payload.
type E12Data struct {
	Experiment string         `json:"experiment"`
	GoVersion  string         `json:"go"`
	CPUs       int            `json:"cpus"`
	CommitOps  int            `json:"commit_ops"`
	Commits    int            `json:"commits"`
	Sizes      []E12SizeStats `json:"sizes"`
}

// heapAlloc settles the heap and reads the live allocation.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buildStoreDB populates a database like buildChurnDB and measures the live
// heap the populated database retains.
func buildStoreDB(n, hits int) (db *seed.Database, targets []seed.ID, items int, bytes uint64) {
	db = mustDB()
	before := heapAlloc()
	classes := []string{"Data", "InputData", "Thing", "Action"}
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		if i < hits {
			class = "OutputData"
		}
		id, err := db.CreateObject(class, fmt.Sprintf("Obj%06d", i))
		if err != nil {
			panic(err)
		}
		items++
		if i%4 == 0 {
			d, err := db.CreateValueObject(id, "Description", seed.NewString("initial"))
			if err != nil {
				panic(err)
			}
			targets = append(targets, d)
			items++
		}
	}
	// Measure the steady state a reader-facing database retains: live store
	// plus the current frozen generation (the first View freezes it).
	db.View()
	bytes = heapAlloc() - before
	return db, targets, items, bytes
}

// measureNames times by-name lookups over the populated name range.
func measureNames(v seed.View, n, reps int) (time.Duration, error) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("Obj%06d", (i*2654435761)%n)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := v.ObjectByName(names[i%len(names)]); !ok {
			return 0, fmt.Errorf("by-name lookup lost %s", names[i%len(names)])
		}
	}
	return time.Duration(int64(time.Since(start)) / int64(reps)), nil
}

// measureStore runs the full E12 measurement at one database size.
func measureStore(w ColumnarWorkload, n int) (E12ModeStats, int, error) {
	var st E12ModeStats
	db, targets, items, liveBytes := buildStoreDB(n, w.QueryHits)
	defer db.Close()
	st.BytesPerItem = int64(liveBytes) / int64(items)

	churn := ChurnWorkload{CommitOps: w.CommitOps, Commits: w.Commits}
	rng := rand.New(rand.NewSource(int64(n)))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	freezes, err := measureChurn(db, targets, churn, rng)
	if err != nil {
		return st, items, err
	}
	runtime.ReadMemStats(&ms1)
	st.GCPauseTotalNanos = int64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	st.NumGC = int64(ms1.NumGC - ms0.NumGC)
	st.FreezeMedianNanos = int64(median(freezes))
	st.FreezeMeanNanos = int64(mean(freezes))

	v := db.View()
	byClass, hits, err := measureQuery(v, w.QueryReps)
	if err != nil {
		return st, items, err
	}
	if hits != w.QueryHits {
		return st, items, fmt.Errorf("by-class query found %d of %d", hits, w.QueryHits)
	}
	st.QueryByClassNanos = int64(byClass)
	byName, err := measureNames(v, n, w.NameReps)
	if err != nil {
		return st, items, err
	}
	st.QueryByNameNanos = int64(byName)
	return st, items, nil
}

// E12 runs the standard workload.
func E12() *Result {
	r, _ := E12Stats(DefaultColumnarWorkload)
	return r
}

// E12Stats runs the store measurement for every database size and returns
// both the report and the machine-readable data.
func E12Stats(w ColumnarWorkload) (*Result, *E12Data) {
	r := &Result{Name: "E12: columnar store — interned symbols and array-backed COW generations"}
	data := &E12Data{
		Experiment: "E12",
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		CommitOps:  w.CommitOps,
		Commits:    w.Commits,
	}
	r.logf("workload: %d-op commits, %d cycles, %d-hit by-class query x%d, by-name x%d",
		w.CommitOps, w.Commits, w.QueryHits, w.QueryReps, w.NameReps)
	for _, n := range w.Sizes {
		col, items, err := measureStore(w, n)
		if err != nil {
			r.assert(false, "%7d objects: %v", n, err)
			return r, data
		}
		data.Sizes = append(data.Sizes, E12SizeStats{Objects: n, Items: items, Columnar: col})
		r.logf("%7d objects (%7d items): %4dB/item; GC pause %6v; freeze %8v; by-class %8v; by-name %6v",
			n, items, col.BytesPerItem, time.Duration(col.GCPauseTotalNanos),
			time.Duration(col.FreezeMedianNanos), time.Duration(col.QueryByClassNanos),
			time.Duration(col.QueryByNameNanos))
	}
	last := data.Sizes[len(data.Sizes)-1]
	maxBytes := e12MapBytesPerItem / e12MinBytesAdvantage
	r.assert(float64(last.Columnar.BytesPerItem) <= maxBytes,
		"%dB/item at %d objects <= %.0fB (committed map store %dB / %.1f)",
		last.Columnar.BytesPerItem, last.Objects, maxBytes, e12MapBytesPerItem, e12MinBytesAdvantage)
	r.assert(float64(last.Columnar.FreezeMedianNanos) <= w.MaxRegr*e12MapFreezeNanos,
		"freeze latency at %d objects (%v) within %.2fx of the committed map store (%v)",
		last.Objects, time.Duration(last.Columnar.FreezeMedianNanos), w.MaxRegr, time.Duration(e12MapFreezeNanos))
	r.assert(float64(last.Columnar.QueryByClassNanos) <= w.MaxRegr*e12MapByClassNanos,
		"by-class query at %d objects (%v) within %.2fx of the committed map store (%v)",
		last.Objects, time.Duration(last.Columnar.QueryByClassNanos), w.MaxRegr, time.Duration(e12MapByClassNanos))
	return r, data
}
