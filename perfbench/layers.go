package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/pattern"
	"repro/internal/wire"
	"repro/seed"
)

// layerMetric is one per-layer number of the traced run, with the
// end-to-end metric (and workload) it should move.
type layerMetric struct {
	name, unit, better string
	moves              string
}

// perLayer lists every per-layer metric in the order BENCHMARK.json lists
// them, each with the end-to-end metric and workload it should move: the
// per-layer → end-to-end map later changes cite. Names in parentheses are
// the per-kind numbers of the detail line. Times over the wire are means,
// so that wire overhead is client round trip minus server busy time;
// in-process probe times are medians.
var perLayer = []layerMetric{
	{"client.get.rtt_us", "us", "lower", "op_p50_us on browse (get_p50_us)"},
	{"client.query.rtt_us", "us", "lower", "op_p50_us and op_tail_us on browse (query_*_p50_us)"},
	{"client.checkout.rtt_us", "us", "lower", "op_p50_us on edit (checkin_p50_ms)"},
	{"client.checkin.rtt_us", "us", "lower", "op_p50_us on edit (checkin_p50_ms)"},
	{"wire.get.overhead_us", "us", "lower", "op_p50_us on browse (get_p50_us)"},
	{"wire.query.overhead_us", "us", "lower", "op_p50_us on browse (query_eq_p50_us)"},
	{"wire.get.resp_bytes", "B", "lower", "op_p50_us on browse (get_p50_us)"},
	{"wire.query.resp_bytes", "B", "lower", "op_p50_us on browse (query_eq_p50_us)"},
	{"wire.encode_ns_per_byte", "ns/B", "lower", "op_p50_us on browse (get_p50_us, query_eq_p50_us)"},
	{"wire.decode_ns_per_byte", "ns/B", "lower", "op_p50_us on browse (get_p50_us, query_eq_p50_us)"},
	{"server.get.busy_us", "us", "lower", "op_p50_us on browse (get_p50_us)"},
	{"server.query.busy_us", "us", "lower", "op_p50_us and op_tail_us on browse"},
	{"server.checkout.busy_us", "us", "lower", "op_p50_us on edit (checkin_p50_ms)"},
	{"server.checkin.busy_us", "us", "lower", "op_p50_us on edit (checkin_p50_ms)"},
	{"server.save-version.busy_us", "us", "lower", "op_tail_us on edit (checkin_p99_ms)"},
	{"server.queued", "count", "lower", "failed ops and op_tail_us on mixed; should be 0"},
	{"server.rejected", "count", "lower", "failed ops and op_tail_us on mixed; should be 0"},
	{"server.locked", "count", "lower", "failed ops and op_tail_us on mixed; should be 0"},
	{"server.conflict", "count", "lower", "failed ops and op_tail_us on mixed; should be 0"},
	{"query.eq.candidates_per_match", "count", "lower", "op_tail_us on browse and mixed (query_eq_p50_us)"},
	{"query.range.candidates_per_match", "count", "lower", "op_tail_us on browse and mixed (query_range_p50_us, query_p99_us)"},
	{"query.follow.candidates_per_match", "count", "lower", "op_p50_us on browse (query_follow_p50_us)"},
	{"query.scan_plans", "count", "lower", "op_tail_us on browse and mixed; should be 0"},
	{"query.eq.run_us", "us", "lower", "op_tail_us on browse and mixed (query_eq_p50_us)"},
	{"query.range.run_us", "us", "lower", "op_tail_us on browse and mixed (query_range_p50_us, query_p99_us)"},
	{"query.follow.run_us", "us", "lower", "op_p50_us on browse (query_follow_p50_us)"},
	{"seed.begin_us", "us", "lower", "op_p50_us on edit and replicate (checkin_p50_ms)"},
	{"seed.resolve_first_us", "us", "lower", "op_p50_us on edit and replicate (checkin_p50_ms)"},
	{"seed.apply_us", "us", "lower", "op_p50_us on edit and replicate (checkin_p50_ms)"},
	{"seed.commit_us", "us", "lower", "op_p50_us on edit and replicate (checkin_p50_ms)"},
	{"core.freeze_after_commit_us", "us", "lower", "op_tail_us on mixed (get_p99_us, query_p99_us)"},
	{"pattern.splice_us", "us", "lower", "op_tail_us on mixed (get_p99_us, query_p99_us)"},
	{"seed.view_after_commit_us", "us", "lower", "op_tail_us on mixed (get_p99_us, query_p99_us)"},
	{"seed.generations_per_op", "count", "lower", "op_tail_us on mixed; 0 on browse"},
	{"storage.sync_us", "us", "lower", "op_p50_us on edit (checkin_p50_ms)"},
	{"storage.wal_bytes_per_checkin", "B", "lower", "recovery_s and disk_bytes_per_checkin on edit (detail line)"},
	{"storage.segments", "count", "lower", "recovery_s on edit (detail line)"},
	{"version.save_us", "us", "lower", "op_tail_us on edit (checkin_p99_ms)"},
	{"replica.bootstrap_s", "s", "lower", "setup_s on replicate"},
	{"replica.polls_per_visible", "count", "lower", "visible_lag_p50_us on replicate"},
	{"replica.lag_gens_max", "count", "lower", "visible_lag_p99_us on replicate"},
	{"replica.records_per_checkin", "count", "lower", "visible_lag_p50_us on replicate"},
	{"replica.resyncs_after_ready", "count", "lower", "visible_lag_p99_us on replicate; should be 0"},
	{"gc.alloc_bytes_per_op", "B", "lower", "ops_per_s on edit and mixed"},
	{"gc.cpu_fraction", "ratio", "lower", "ops_per_s on edit and mixed"},
	{"gc.cycles", "count", "lower", "ops_per_s on edit and mixed"},
	{"gc.pause_total_ms", "ms", "lower", "op_tail_us on browse and mixed (get_p99_us)"},
	{"trace.overhead_pct", "%", "lower", "none: traced minus untraced ops_per_s, as a share of untraced"},
	{"trace.spans", "count", "lower", "none: spans the traced run recorded"},
}

// counters is a sample of every counter the per-layer metrics are deltas
// of.
type counters struct {
	server   map[string]float64 // Server.WriteMetrics series → value
	stats    seed.Stats
	applied  uint64 // follower: records applied
	mem      runtime.MemStats
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
}

func (e *env) sample() counters {
	var c counters
	var buf bytes.Buffer
	e.srv.WriteMetrics(&buf)
	c.server = parseMetrics(&buf)
	c.stats = e.db.Stats()
	if e.rep != nil {
		_, _, c.applied = e.rep.fol.Status()
	}
	runtime.ReadMemStats(&c.mem)
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ms)
	c.gcCPU, c.totalCPU = ms[0].Value.Float64(), ms[1].Value.Float64()
	return c
}

// parseMetrics reads the series of the Prometheus text exposition format.
func parseMetrics(buf *bytes.Buffer) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// busyUS is the server's mean handling time of op between two samples.
func busyUS(a, b counters, op string) float64 {
	sum := fmt.Sprintf("seed_op_duration_seconds_sum{op=%q}", op)
	count := fmt.Sprintf("seed_op_duration_seconds_count{op=%q}", op)
	return ratio(b.server[sum]-a.server[sum], b.server[count]-a.server[count]) * 1e6
}

// measureLayers runs the traced phase and the layer probes after it, and
// derives the per-layer metrics from their spans and counter deltas.
// untraced is the same workload's untraced phase on the same seed. It
// returns the traced phase and the probes' ops and output checks.
func (e *env) measureLayers(tr *tracer, untraced *phase) (traced, probes *phase, _ map[string]metric, _ error) {
	out := map[string]metric{}
	set := func(name string, v float64) {
		for _, l := range perLayer {
			if l.name == name {
				out[name] = metric{v, l.unit}
				return
			}
		}
		panic("perfbench: unlisted per-layer metric " + name)
	}

	before := e.sample()
	traced, err := e.runPhase(e.cfg.duration, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	after := e.sample()
	ops := float64(traced.completed())

	set("seed.generations_per_op", ratio(float64(after.stats.Generation-before.stats.Generation), ops))
	set("storage.wal_bytes_per_checkin", ratio(float64(after.stats.LogBytes-before.stats.LogBytes), float64(traced.checkins)))
	set("storage.segments", float64(after.stats.LogSegments))
	set("gc.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops))
	set("gc.cycles", float64(after.mem.NumGC-before.mem.NumGC))
	set("gc.pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	set("gc.cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
	set("trace.overhead_pct", 100*(1-ratio(ops/traced.elapsed.Seconds(), float64(untraced.completed())/untraced.elapsed.Seconds())))
	if e.rep != nil {
		set("replica.bootstrap_s", medianFloat(e.bootstraps))
		set("replica.polls_per_visible", ratio(float64(traced.polls), float64(len(traced.lag))))
		set("replica.lag_gens_max", float64(traced.lagGensMax))
		set("replica.records_per_checkin", ratio(float64(after.applied-before.applied), float64(traced.checkins)))
		set("replica.resyncs_after_ready", float64(e.rep.fol.Resyncs()-1))
	} else {
		// No follower runs during the workload: time one bootstrap from
		// the state it left, and leave the replication counts at 0.
		rep, err := startReplica(e.addr)
		if err != nil {
			return nil, nil, nil, err
		}
		rep.close()
		set("replica.bootstrap_s", rep.bootstrap.Seconds())
		for _, n := range []string{"replica.polls_per_visible", "replica.lag_gens_max", "replica.records_per_checkin", "replica.resyncs_after_ready"} {
			set(n, 0)
		}
	}

	// Op kinds the workload does not send are timed over the wire by a
	// short probe after the phase, so every layer has a number.
	probes, err = e.wireProbe(tr, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	end := e.sample()
	both := &phase{}
	both.merge(traced)
	both.merge(probes)

	set("client.get.rtt_us", tr.durations("client.get").mean(time.Microsecond))
	var queries Latencies
	for _, k := range []opKind{opQueryEq, opQueryRange, opQueryFollow} {
		queries = append(queries, tr.durations("client."+k.String())...)
	}
	set("client.query.rtt_us", queries.mean(time.Microsecond))
	set("client.checkout.rtt_us", tr.durations("client.checkout").mean(time.Microsecond))
	set("client.checkin.rtt_us", tr.durations("client.checkin").mean(time.Microsecond))
	for _, op := range []string{"get", "query", "checkout", "checkin", "save-version"} {
		set("server."+op+".busy_us", busyUS(before, end, op))
	}
	set("wire.get.overhead_us", out["client.get.rtt_us"].Value-out["server.get.busy_us"].Value)
	set("wire.query.overhead_us", out["client.query.rtt_us"].Value-out["server.query.busy_us"].Value)
	codes := func(series string) float64 { return end.server[series] - before.server[series] }
	set("server.rejected", codes("seed_rejected_total"))
	set("server.locked", codes(`seed_responses_total{code="locked"}`))
	set("server.conflict", codes(`seed_responses_total{code="conflict"}`))
	set("server.queued", end.server["seed_queued_requests"])

	scans := 0
	for k, name := range map[opKind]string{opQueryEq: "eq", opQueryRange: "range", opQueryFollow: "follow"} {
		t := both.plans[k]
		set("query."+name+".candidates_per_match", ratio(float64(t.candidates), float64(t.matched)))
		scans += t.scans
	}
	set("query.scan_plans", float64(scans))

	getBytes, queryBytes, enc, dec, err := codecCosts(both.captured)
	if err != nil {
		return nil, nil, nil, err
	}
	set("wire.get.resp_bytes", getBytes)
	set("wire.query.resp_bytes", queryBytes)
	set("wire.encode_ns_per_byte", enc)
	set("wire.decode_ns_per_byte", dec)

	inproc := &worker{e: e, buf: tr.buf()}
	if err := e.inProcess(inproc, set); err != nil {
		return nil, nil, nil, err
	}
	probes.merge(&inproc.res)
	set("trace.spans", float64(tr.count()))
	return traced, probes, out, nil
}

// wireProbe sends, over one connection, the op kinds the traced phase did
// not send: reads drawn from the browse mix and edits drawn from the edit
// stream of the same workload and seed.
func (e *env) wireProbe(tr *tracer, traced *phase) (*phase, error) {
	cli, err := client.Dial(e.addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	w := &worker{e: e, cli: cli, buf: tr.buf()}
	want := [numOpKinds]int{}
	for k := range want {
		if len(traced.lat[k]) == 0 {
			want[k] = e.cfg.probeOps
		}
	}
	want[opQueryRange] = min(want[opQueryRange], e.cfg.probeOps/4)
	want[opSave] = min(want[opSave], probeSaves)
	reads := newBrowseStream(e.ds, e.spec.name, e.cfg.seed, 0)
	for want[opGet]+want[opQueryEq]+want[opQueryRange]+want[opQueryFollow] > 0 {
		if o := reads.next(); want[o.Kind] > 0 {
			want[o.Kind]--
			w.do(o)
		}
	}
	edits := newEditStream(e.ds, e.spec.name, e.cfg.seed, 0, 0, e.ds.Objects, false)
	for ; want[opEdit] > 0; want[opEdit]-- {
		w.do(edits.next())
	}
	for ; want[opSave] > 0; want[opSave]-- {
		w.do(op{Kind: opSave})
	}
	return &w.res, nil
}

// codecCosts re-encodes the captured responses: their mean frame size for
// Get and for queries, and the wire codec's encode and decode cost per
// byte.
func codecCosts(resps []*wire.Response) (getBytes, queryBytes, encNs, decNs float64, err error) {
	var gets, queries []float64
	var frames bytes.Buffer
	for _, r := range resps {
		n := frames.Len()
		if err := wire.WriteFrame(&frames, r); err != nil {
			return 0, 0, 0, 0, err
		}
		size := float64(frames.Len() - n)
		if r.Snapshots != nil {
			gets = append(gets, size)
		} else {
			queries = append(queries, size)
		}
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	total := frames.Len()
	if total == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no responses captured")
	}
	// Repeat until each side has run long enough to time.
	const minTime = 50 * time.Millisecond
	var sink bytes.Buffer
	wr := wire.NewWriter(&sink)
	reps, t0 := 0, time.Now()
	for time.Since(t0) < minTime {
		sink.Reset()
		for _, r := range resps {
			if err := wr.Write(r); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		reps++
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*total)
	raw := frames.Bytes()
	reps, t0 = 0, time.Now()
	for time.Since(t0) < minTime {
		rd := wire.NewReader(bytes.NewReader(raw))
		for range resps {
			var r wire.Response
			if err := rd.Read(&r); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		reps++
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*total)
	return mean(gets), mean(queries), encNs, decNs, nil
}

// probeObjects returns the Data objects the workload's own first ops
// touch, up to n of them.
func (e *env) probeObjects(n int) []int {
	var next func() op
	if e.spec.editors > 0 {
		next = newEditStream(e.ds, e.spec.name, e.cfg.seed, 0, 0, e.ds.Objects/e.spec.editors, false).next
	} else {
		next = newBrowseStream(e.ds, e.spec.name, e.cfg.seed, 0).next
	}
	var objs []int
	for len(objs) < n {
		if o := next(); o.Kind == opGet || o.Kind == opQueryFollow || o.Kind == opEdit {
			objs = append(objs, o.Obj)
		}
	}
	return objs
}

// inProcess times the layers the server calls, through their public
// functions on the same database: a check-in transaction step by step, the
// freeze and splice a commit leaves to the next reader, a journaled op's
// sync, version saves, and the workload's query kinds.
func (e *env) inProcess(w *worker, set func(string, float64)) error {
	b := w.buf
	db, m := e.db, e.model
	r := rand.New(rand.NewSource(streamSeed(e.spec.name+"/probe", e.cfg.seed, 0)))
	us := time.Microsecond
	var begin, resolve, apply, commit, freeze, splice, view, syncs Latencies

	// commitOne sets object i's Description in its own transaction.
	commitOne := func(i int, desc seed.ID) error {
		tag := r.Intn(e.ds.Tags)
		cur, _ := m.last(i)
		tx, err := db.BeginTx()
		if err != nil {
			return err
		}
		if err := tx.SetValue(desc, seed.NewString(tagName(tag))); err != nil {
			_ = tx.Rollback() // the SetValue error is the one to report
			return err
		}
		seq := m.enter(i, tag, cur.day)
		if err := tx.Commit(); err != nil {
			m.fail(i)
			return err
		}
		m.ack(seq)
		return nil
	}

	for _, i := range e.probeObjects(e.cfg.probeOps) {
		name := dataName(i)
		opID := b.newOp()
		root := b.start("probe.checkin", 0, opID)
		tag, day := r.Intn(e.ds.Tags), r.Intn(e.ds.Days)
		var tx *seed.Tx
		var desc, rev seed.ID
		var err error
		begin = append(begin, b.timed("seed.begin", root, opID, func() { tx, err = db.BeginTx() }))
		if err != nil {
			return err
		}
		resolve = append(resolve, b.timed("seed.resolve_first", root, opID, func() { desc, err = tx.ResolvePath(name + ".Description") }))
		if err == nil {
			rev, err = tx.ResolvePath(name + ".Revised")
		}
		if err == nil {
			apply = append(apply, b.timed("seed.apply", root, opID, func() {
				if err = tx.SetValue(desc, seed.NewString(tagName(tag))); err == nil {
					err = tx.SetValue(rev, seed.NewDate(dayDate(day)))
				}
			}))
		}
		if err != nil {
			_ = tx.Rollback() // the staging error is the one to report
			b.finish(root)
			return err
		}
		seq := m.enter(i, tag, day)
		commit = append(commit, b.timed("seed.commit", root, opID, func() { err = tx.Commit() }))
		b.finish(root)
		if err != nil {
			m.fail(i)
			return err
		}
		m.ack(seq)

		// The first reader after a one-value commit freezes the new
		// generation; the user view splices patterns over it.
		if err := commitOne(i, desc); err != nil {
			return err
		}
		root = b.start("probe.read_after_commit", 0, opID)
		var raw seed.View
		freeze = append(freeze, b.timed("core.freeze_after_commit", root, opID, func() { raw = db.RawView() }))
		splice = append(splice, b.timed("pattern.splice", root, opID, func() { pattern.NewSpliced(raw) }))
		b.finish(root)
		if err := commitOne(i, desc); err != nil {
			return err
		}
		view = append(view, b.timed("seed.view_after_commit", 0, opID, func() { db.View() }))

		// One journaled op, then Sync.
		if err := commitOne(i, desc); err != nil {
			return err
		}
		syncs = append(syncs, b.timed("storage.sync", 0, opID, func() { err = db.Sync() }))
		if err != nil {
			return err
		}
	}
	set("seed.begin_us", begin.median(us))
	set("seed.resolve_first_us", resolve.median(us))
	set("seed.apply_us", apply.median(us))
	set("seed.commit_us", commit.median(us))
	set("core.freeze_after_commit_us", freeze.median(us))
	set("pattern.splice_us", splice.median(us))
	set("seed.view_after_commit_us", view.median(us))
	set("storage.sync_us", syncs.median(us))

	var saves Latencies
	for k := 0; k < probeSaves; k++ {
		var err error
		saves = append(saves, b.timed("version.save", 0, b.newOp(), func() { _, err = db.SaveVersion("probe") }))
		if err != nil {
			return err
		}
	}
	set("version.save_us", saves.median(us))

	return e.queryProbe(w, set)
}

// probeSaves is the number of in-process version saves timed.
const probeSaves = 5

// queryProbe runs the workload's browse-mix queries in process: the
// planner and executor on the database's current view, then Follow and
// paging, exactly the calls the server makes for a query request.
func (e *env) queryProbe(w *worker, set func(string, float64)) error {
	b := w.buf
	want := map[opKind]int{opQueryEq: e.cfg.probeOps / 2, opQueryRange: e.cfg.probeOps / 4, opQueryFollow: e.cfg.probeOps / 2}
	runs := map[opKind]Latencies{}
	reads := newBrowseStream(e.ds, e.spec.name, e.cfg.seed, 0)
	for want[opQueryEq]+want[opQueryRange]+want[opQueryFollow] > 0 {
		o := reads.next()
		if want[o.Kind] == 0 {
			continue
		}
		want[o.Kind]--
		q, steps, limit := e.ds.seedQuery(o)
		var ids []seed.ID
		var err error
		win := e.model.readWindow(e.model.readStart())
		v := e.db.View()
		d := b.timed("query."+strings.TrimPrefix(o.Kind.String(), "query.")+".run", 0, b.newOp(), func() {
			if ids, _, err = seed.RunPlan(q, v); err == nil {
				ids, _, err = seed.FollowPage(v, ids, steps, limit, 0)
			}
		})
		if err != nil {
			return err
		}
		runs[o.Kind] = append(runs[o.Kind], d)
		objs := make([]wire.Object, 0, len(ids))
		for _, id := range ids {
			if obj, ok := v.Object(id); ok {
				objs = append(objs, wire.Object{Class: obj.Class.QualifiedName(), Name: obj.Name})
			}
		}
		w.checkQuery(o, objs, 0, win)
	}
	set("query.eq.run_us", runs[opQueryEq].median(time.Microsecond))
	set("query.range.run_us", runs[opQueryRange].median(time.Microsecond))
	set("query.follow.run_us", runs[opQueryFollow].median(time.Microsecond))
	return nil
}

// seedQuery is the in-process form of a query op, built the way the
// server builds it from the wire form.
func (ds *Dataset) seedQuery(o op) (*seed.Query, []seed.FollowStep, int) {
	q := seed.NewQuery().Class("Data", false)
	switch o.Kind {
	case opQueryEq:
		return q.Where("Description", seed.Eq, seed.NewString(tagName(o.Tag))), nil, 0
	case opQueryRange:
		return q.Where("Revised", seed.Ge, seed.NewDate(dayDate(o.Day))).
			Where("Revised", seed.Lt, seed.NewDate(dayDate(o.Day+1))), nil, rangeLimit
	default:
		return q.NameGlob(dataName(o.Obj)), []seed.FollowStep{{Assoc: "Access", From: "from", To: "by"}}, 0
	}
}
