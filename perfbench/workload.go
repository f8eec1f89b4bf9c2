package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

// workloadSpec is one traffic mix: how many closed-loop connections edit
// and how many browse, and whether a follower serves the reads that check
// replication. tailPct is the percentile op_tail_us reports: the highest
// one a run of the workload leaves at least ten samples beyond. It is fixed
// per workload so that a run with a few more or fewer ops does not switch
// the metric to another percentile.
type workloadSpec struct {
	name     string
	editors  int // edit connections; editor 0 also saves versions
	readers  int // browse connections
	follower bool
	tailPct  float64
}

var workloadSpecs = []workloadSpec{
	{name: "browse", readers: 2, tailPct: 99},                    // ~3,200 ops per 10 s run
	{name: "edit", editors: 2, tailPct: 99},                      // ~1,600
	{name: "mixed", editors: 1, readers: 1, tailPct: 99},         // ~2,400
	{name: "replicate", editors: 1, follower: true, tailPct: 95}, // 900-1,200: too few for p99
}

func specOf(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// visibleTimeout bounds the wait for an acked edit to appear on the
// follower; reaching it fails the edit.
const visibleTimeout = 10 * time.Second

// env is one set-up database with its server, and on replicate its
// follower.
type env struct {
	cfg   config
	spec  workloadSpec
	ds    *Dataset
	model *model
	dir   string
	db    *seed.Database
	srv   *server.Server
	addr  string
	rep   *replica

	bootstraps []float64 // replicate: follower bootstrap of every set-up, s
}

// openOptions are the storage settings of every workload: file-backed,
// every acked check-in fsynced by group commit, default segment size, no
// automatic compaction.
func openOptions() seed.Options {
	return seed.Options{Schema: seed.Figure3Schema(), SyncPolicy: seed.SyncGroupCommit}
}

func seedOpen(dir string) (*seed.Database, error) {
	opts := openOptions()
	opts.Schema = nil // an existing database loads its schema from its log
	return seed.Open(dir, opts)
}

// setup builds the dataset in a fresh directory, serves it on loopback and,
// on replicate, bootstraps a follower from it.
func setup(cfg config, spec workloadSpec, dir string) (*env, error) {
	ds := cfg.dataset
	ds.generate()
	db, err := seed.Open(dir, openOptions())
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, spec: spec, ds: &ds, model: newModel(&ds), dir: dir, db: db}
	if err := ds.Build(db); err != nil {
		e.shutdown()
		return nil, err
	}
	db.View() // freeze the built generation now, not in the first read
	e.srv = server.New(db)
	if e.addr, err = e.srv.Listen("127.0.0.1:0"); err != nil {
		e.shutdown()
		return nil, err
	}
	if spec.follower {
		if e.rep, err = startReplica(e.addr); err != nil {
			e.shutdown()
			return nil, err
		}
	}
	return e, nil
}

// shutdown stops the follower, the server and the database. It is safe to
// call more than once.
func (e *env) shutdown() error {
	if e.rep != nil {
		e.rep.close()
		e.rep = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.db == nil {
		return nil
	}
	err := e.db.Close()
	e.db = nil
	return err
}

// replica is a follower database replicating the primary, served by its
// own follower-mode server.
type replica struct {
	db        *seed.Database
	fol       *server.Follower
	srv       *server.Server
	addr      string
	stop      context.CancelFunc
	done      chan struct{}
	bootstrap time.Duration // Follower.Run → WaitReady
}

func startReplica(primary string) (*replica, error) {
	r := &replica{db: seed.NewFollower(), done: make(chan struct{})}
	r.fol = server.NewFollower(r.db, primary)
	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	t0 := time.Now()
	go func() {
		defer close(r.done)
		r.fol.Run(ctx)
	}()
	wctx, wstop := context.WithTimeout(ctx, 120*time.Second)
	err := r.fol.WaitReady(wctx)
	wstop()
	r.bootstrap = time.Since(t0)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("follower bootstrap: %w", err)
	}
	r.srv = server.New(r.db)
	r.srv.SetFollower(true)
	r.srv.SetReplicaStatus(r.fol.Status)
	if r.addr, err = r.srv.Listen("127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replica) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	r.stop()
	<-r.done
}

// planTally sums the query plans of one query kind.
type planTally struct{ candidates, matched, scans int }

// phase is what one timed phase measured.
type phase struct {
	elapsed    time.Duration
	lat        [numOpKinds]Latencies // completed ops; an edit runs checkout → check-in ack
	lag        Latencies             // replicate: check-in ack → value readable on the follower
	polls      int
	attempted  int
	failed     int
	checkins   int
	lagGensMax uint64
	plans      [numOpKinds]planTally
	problems   []string // failed output checks
	captured   []*wire.Response
}

func (p *phase) completed() int {
	n := 0
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

func (p *phase) all() Latencies {
	var out Latencies
	for _, l := range p.lat {
		out = append(out, l...)
	}
	return out
}

func (p *phase) merge(q *phase) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
		p.plans[k].candidates += q.plans[k].candidates
		p.plans[k].matched += q.plans[k].matched
		p.plans[k].scans += q.plans[k].scans
	}
	p.lag = append(p.lag, q.lag...)
	p.polls += q.polls
	p.attempted += q.attempted
	p.failed += q.failed
	p.checkins += q.checkins
	p.lagGensMax = max(p.lagGensMax, q.lagGensMax)
	p.problems = append(p.problems, q.problems...)
	p.captured = append(p.captured, q.captured...)
}

// maxProblems caps the output-check failures one phase keeps.
const maxProblems = 20

func (p *phase) problem(format string, args ...any) {
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// maxCaptured caps the responses a traced phase keeps for codec timing.
const maxCaptured = 512

// worker is one closed-loop connection: it sends its next op only after
// the previous reply arrived.
type worker struct {
	e      *env
	cli    *client.Client
	fcli   *client.Client // replicate: connection to the follower
	buf    *spanBuf
	strict bool // no edits run: reads must equal the model exactly
	res    phase
}

// runPhase drives the workload's connections for d and returns what they
// measured. Every phase restarts the op streams from the seed.
func (e *env) runPhase(d time.Duration, tr *tracer) (*phase, error) {
	var streams []func() op
	for k := 0; k < e.spec.editors; k++ {
		lo, hi := k*e.ds.Objects/e.spec.editors, (k+1)*e.ds.Objects/e.spec.editors
		streams = append(streams, newEditStream(e.ds, e.spec.name, e.cfg.seed, len(streams), lo, hi, k == 0).next)
	}
	for k := 0; k < e.spec.readers; k++ {
		streams = append(streams, newBrowseStream(e.ds, e.spec.name, e.cfg.seed, len(streams)).next)
	}
	var workers []*worker
	defer func() {
		for _, w := range workers {
			w.cli.Close()
			if w.fcli != nil {
				w.fcli.Close()
			}
		}
	}()
	for range streams {
		cli, err := client.Dial(e.addr)
		if err != nil {
			return nil, err
		}
		w := &worker{e: e, cli: cli, buf: tr.buf(), strict: e.spec.editors == 0}
		workers = append(workers, w)
		if e.rep != nil {
			if w.fcli, err = client.Dial(e.rep.addr); err != nil {
				return nil, err
			}
		}
	}

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.do(streams[i]())
			}
		}()
	}
	wg.Wait()
	res := &phase{elapsed: time.Since(start)}
	for _, w := range workers {
		res.merge(&w.res)
	}
	return res, nil
}

func (w *worker) do(o op) {
	w.res.attempted++
	opID := w.buf.newOp()
	root := w.buf.start("op."+o.Kind.String(), 0, opID)
	defer w.buf.finish(root)
	var err error
	switch {
	case o.Kind == opGet:
		err = w.get(o, root, opID)
	case o.Kind.isQuery():
		err = w.query(o, root, opID)
	case o.Kind == opEdit:
		err = w.edit(o, root, opID)
	case o.Kind == opSave:
		t0 := time.Now()
		id := w.buf.start("client.save-version", root, opID)
		_, err = w.cli.SaveVersion("bench")
		w.buf.finish(id)
		if err == nil {
			w.res.lat[opSave] = append(w.res.lat[opSave], time.Since(t0))
		}
	}
	if err != nil {
		w.res.failed++
		w.res.problem("%s failed: %v", o.Kind, err)
	}
}

func (w *worker) get(o op, root, opID int64) error {
	name := dataName(o.Obj)
	lo := w.e.model.readStart()
	t0 := time.Now()
	id := w.buf.start("client.get", root, opID)
	snaps, err := w.cli.Get(name)
	w.buf.finish(id)
	if err != nil {
		return err
	}
	w.res.lat[opGet] = append(w.res.lat[opGet], time.Since(t0))
	win := w.e.model.readWindow(lo)
	w.capture(&wire.Response{Snapshots: snaps})
	if len(snaps) != 1 {
		w.res.problem("get %s: %d snapshots", name, len(snaps))
		return nil
	}
	tag, day, err := snapshotValues(snaps[0])
	if err != nil {
		w.res.problem("get %s: %v", name, err)
		return nil
	}
	if !w.e.model.visible(o.Obj, win, func(v version) bool { return v.tag == tag && v.day == day }) {
		w.res.problem("get %s: read (%s, %s), never current", name, tagName(tag), dayText(day))
	}
	return nil
}

// snapshotValues extracts the Description tag and Revised day from a Data
// object's snapshot.
func snapshotValues(s wire.Snapshot) (tag, day int, err error) {
	tag, day = -1, -1
	for _, o := range s.Objects {
		switch o.Path {
		case s.Root + ".Description":
			if tag, err = parseTag(o.Value); err != nil {
				return 0, 0, err
			}
		case s.Root + ".Revised":
			if day, err = parseDay(o.Value); err != nil {
				return 0, 0, err
			}
		}
	}
	if tag < 0 || day < 0 {
		return 0, 0, fmt.Errorf("snapshot of %s lacks Description or Revised", s.Root)
	}
	return tag, day, nil
}

// wireQuery is the client form of a query op.
func (ds *Dataset) wireQuery(o op) *wire.Query {
	switch o.Kind {
	case opQueryEq:
		return &wire.Query{Class: "Data", Where: []wire.Where{
			{Path: "Description", Op: wire.CmpEq, ValueKind: uint8(seed.KindString), Value: tagName(o.Tag)},
		}}
	case opQueryRange:
		return &wire.Query{Class: "Data", Limit: rangeLimit, Where: []wire.Where{
			{Path: "Revised", Op: wire.CmpGe, ValueKind: uint8(seed.KindDate), Value: dayText(o.Day)},
			{Path: "Revised", Op: wire.CmpLt, ValueKind: uint8(seed.KindDate), Value: dayText(o.Day + 1)},
		}}
	default:
		return &wire.Query{Class: "Data", NameGlob: dataName(o.Obj), Follow: []wire.FollowStep{
			{Assoc: "Access", From: "from", To: "by"},
		}}
	}
}

func (w *worker) query(o op, root, opID int64) error {
	lo := w.e.model.readStart()
	t0 := time.Now()
	id := w.buf.start("client."+o.Kind.String(), root, opID)
	objs, total, plan, err := w.cli.QueryPlan(w.e.ds.wireQuery(o))
	w.buf.finish(id)
	if err != nil {
		return err
	}
	w.res.lat[o.Kind] = append(w.res.lat[o.Kind], time.Since(t0))
	win := w.e.model.readWindow(lo)
	w.capture(&wire.Response{Objects: objs, Total: total, Plan: plan})
	if plan != nil {
		t := &w.res.plans[o.Kind]
		t.candidates += plan.Candidates
		t.matched += plan.Matched
		if plan.Access == "scan" {
			t.scans++
		}
	}
	w.checkQuery(o, objs, total, win)
	return nil
}

// checkQuery checks a query result against the model. Every returned
// object must have satisfied the predicate while the query ran; with no
// edits running the result must also equal the model's result exactly.
func (w *worker) checkQuery(o op, objs []wire.Object, total int, win window) {
	m, ds := w.e.model, w.e.ds
	if o.Kind == opQueryFollow {
		if len(objs) != 1 || objs[0].Name != actionName(o.Obj) || objs[0].Class != "Action" {
			w.res.problem("follow %s: got %v, want Action %s", dataName(o.Obj), objs, actionName(o.Obj))
		}
		return
	}
	names := make([]string, len(objs))
	for k, obj := range objs {
		names[k] = obj.Name
		i, err := dataIndex(obj.Name)
		if err != nil || obj.Class != "Data" {
			w.res.problem("%s: returned %s %q", o.Kind, obj.Class, obj.Name)
			continue
		}
		ok := m.visible(i, win, func(v version) bool {
			if o.Kind == opQueryEq {
				return v.tag == o.Tag
			}
			return v.day == o.Day
		})
		if !ok {
			w.res.problem("%s: %s never satisfied the predicate", o.Kind, obj.Name)
		}
	}
	if !w.strict {
		return
	}
	var want []string
	var wantTotal int
	if o.Kind == opQueryEq {
		want, wantTotal = m.firstByID(ds.byTag[o.Tag], len(ds.byTag[o.Tag])), len(ds.byTag[o.Tag])
	} else {
		want, wantTotal = m.firstByID(ds.byDay[o.Day], rangeLimit), len(ds.byDay[o.Day])
	}
	if total != wantTotal || strings.Join(names, ",") != strings.Join(want, ",") {
		w.res.problem("%s: got %d of %d %v, model has %d of %d %v", o.Kind, len(names), total, names, len(want), wantTotal, want)
	}
}

func dataIndex(name string) (int, error) {
	if !strings.HasPrefix(name, "D") {
		return 0, fmt.Errorf("not a Data name: %q", name)
	}
	return strconv.Atoi(name[1:])
}

func (w *worker) capture(r *wire.Response) {
	if w.buf != nil && len(w.res.captured) < maxCaptured {
		w.res.captured = append(w.res.captured, r)
	}
}

func (w *worker) edit(o op, root, opID int64) error {
	name := dataName(o.Obj)
	t0 := time.Now()
	id := w.buf.start("client.checkout", root, opID)
	ws, err := w.cli.Checkout(name)
	w.buf.finish(id)
	if err != nil {
		return err
	}
	// This connection is the object's only writer, so its copy must hold
	// exactly the model's last value.
	if cp, ok := ws.Copy(name); ok {
		want, known := w.e.model.last(o.Obj)
		tag, day, err := snapshotValues(cp)
		if known && (err != nil || tag != want.tag || day != want.day) {
			w.res.problem("checkout %s: copy (%d, %d, %v), model (%d, %d)", name, tag, day, err, want.tag, want.day)
		}
	} else {
		w.res.problem("checkout %s: no copy", name)
	}
	ws.SetValue(name+".Description", uint8(seed.KindString), tagName(o.Tag))
	ws.SetValue(name+".Revised", uint8(seed.KindDate), dayText(o.Day))
	seq := w.e.model.enter(o.Obj, o.Tag, o.Day)
	id = w.buf.start("client.checkin", root, opID)
	err = ws.Commit()
	w.buf.finish(id)
	if err != nil {
		w.e.model.fail(o.Obj)
		_ = ws.Abandon() // the check-in error is the one to report
		return err
	}
	w.e.model.ack(seq)
	w.res.lat[opEdit] = append(w.res.lat[opEdit], time.Since(t0))
	w.res.checkins++
	if w.fcli != nil {
		return w.awaitVisible(o, root, opID)
	}
	return nil
}

// awaitVisible polls the follower with Get until the acked edit is
// readable there.
func (w *worker) awaitVisible(o op, root, opID int64) error {
	ack := time.Now()
	applied, _, _ := w.e.rep.fol.Status()
	if g := w.e.db.Generation(); g > applied {
		w.res.lagGensMax = max(w.res.lagGensMax, g-applied)
	}
	name := dataName(o.Obj)
	id := w.buf.start("replica.visible", root, opID)
	defer w.buf.finish(id)
	for {
		w.res.polls++
		p := w.buf.start("client.get.follower", id, opID)
		snaps, err := w.fcli.Get(name)
		w.buf.finish(p)
		if err != nil {
			return fmt.Errorf("follower get: %w", err)
		}
		if len(snaps) == 1 {
			if tag, day, err := snapshotValues(snaps[0]); err == nil && tag == o.Tag && day == o.Day {
				w.res.lag = append(w.res.lag, time.Since(ack))
				return nil
			}
		}
		if time.Since(ack) > visibleTimeout {
			return fmt.Errorf("edit of %s not visible on the follower after %v", name, visibleTimeout)
		}
	}
}

// heapMB forces a collection and returns the heap in use, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
