package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/errcode"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

// E14 is the production-hardening fault harness (DESIGN.md section 12): it
// drives the server through sustained overload with misbehaving clients in
// the mix, then through a graceful drain fired mid-traffic, and gates on
// the robustness contract rather than throughput:
//
//   - Overload is shed, not queued without bound: with offered load at a
//     multiple of the admission limit, the accepted requests' p99 latency
//     stays bounded relative to the uncontrolled baseline (no gate at all),
//     and every rejection is the typed, retryable overloaded error —
//     never a hang, a cut connection, or an untyped failure.
//   - Fault hygiene: clients that stall mid-read or vanish mid-checkout
//     are reaped, and every lock they held is reclaimable afterwards.
//   - Graceful drain: a shutdown fired under live check-in traffic exits
//     cleanly, and a differential replay of the reopened database shows
//     every acknowledged check-in present — zero lost acked work.
//   - No leaks: the goroutine count settles back to the pre-experiment
//     baseline once everything is closed.

// FaultWorkload sizes the E14 harness.
type FaultWorkload struct {
	// Overload pressure comes from connection count: a connection whose
	// reader is parked in the admission queue stops presenting new frames,
	// so the gate only sheds once Clients exceeds Limit+Depth.
	Clients   int // well-behaved load connections
	Window    int // pipelined check-ins each keeps in flight
	Rounds    int // windows per client (requests = Window*Rounds)
	BatchSize int // object creates per check-in
	Limit     int // admission: requests executing at once
	Depth     int // admission: wait-queue depth

	Stallers      int // clients that flood fat reads and stop reading
	Disconnecters int // clients that vanish while holding locks

	Writers    int           // drain-phase check-in writers
	DrainAfter time.Duration // live traffic before Shutdown fires
}

// DefaultFaultWorkload offers 4x the admission capacity (limit + depth).
var DefaultFaultWorkload = FaultWorkload{
	Clients: 16, Window: 8, Rounds: 6, BatchSize: 50, Limit: 2, Depth: 2,
	Stallers: 4, Disconnecters: 4, Writers: 4, DrainAfter: 400 * time.Millisecond,
}

// ShortFaultWorkload keeps the CI smoke run cheap (still 4x overload).
var ShortFaultWorkload = FaultWorkload{
	Clients: 8, Window: 4, Rounds: 3, BatchSize: 20, Limit: 1, Depth: 1,
	Stallers: 2, Disconnecters: 2, Writers: 2, DrainAfter: 100 * time.Millisecond,
}

// E14Data is the BENCH_E14.json payload.
type E14Data struct {
	Experiment     string `json:"experiment"`
	GoVersion      string `json:"go"`
	CPUs           int    `json:"cpus"`
	OverloadFactor int    `json:"overload_factor"` // connections / admission capacity (limit+depth)

	Accepted          int     `json:"accepted"`
	Shed              int     `json:"shed"`
	UntypedRejections int     `json:"untyped_rejections"`
	P99Controlled     int64   `json:"p99_controlled_ns"`
	P99Uncontrolled   int64   `json:"p99_uncontrolled_ns"`
	P99Ratio          float64 `json:"p99_controlled_over_uncontrolled"`

	Stallers       int  `json:"stallers"`
	Disconnecters  int  `json:"disconnecters"`
	LocksReclaimed bool `json:"locks_reclaimed"`

	AckedCheckins int   `json:"acked_checkins"`
	LostCheckins  int   `json:"lost_checkins"`
	DrainNanos    int64 `json:"drain_ns"`
	DrainClean    bool  `json:"drain_clean"`

	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`
}

// p99 returns the 99th-percentile latency of a sample.
func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := len(ds) * 99 / 100
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// overloadOutcome is one overload pass's measurements.
type overloadOutcome struct {
	accepted  []time.Duration
	shed      int
	untyped   int
	reclaimed bool
}

// runOverload drives the offered load — w.Clients well-behaved pipelined
// check-in streams plus stallers and disconnecters — against one server,
// with or without admission control, and reports the accepted requests'
// latencies plus the rejection taxonomy. Chaos clients' locks are probed
// for reclamation before the server goes away.
func runOverload(w FaultWorkload, admission bool) (*overloadOutcome, error) {
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// The stallers' flood target: fat enough that a handful of un-read
	// responses blocks the connection's writer on the TCP window.
	blob, err := db.CreateObject("Data", "Blob")
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateValueObject(blob, "Description", seed.NewString(strings.Repeat("x", 1<<18))); err != nil {
		return nil, err
	}
	// One lock target per chaos client, so reclamation is observable.
	for i := 0; i < w.Stallers; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("StallLock%d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.Disconnecters; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("DropLock%d", i)); err != nil {
			return nil, err
		}
	}

	srv := server.New(db)
	// The write deadline reaps a staller once a fat response stalls on its
	// full TCP window. Under the gate a staller's whole burst can be shed
	// instead: the small refusals fit in the socket buffers, no write ever
	// stalls, and only the idle timeout reaps it.
	srv.SetTimeouts(5*time.Second, 200*time.Millisecond)
	if admission {
		srv.SetAdmission(w.Limit, w.Depth, 0)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Chaos: stallers check a lock out, flood fat reads, and never read a
	// byte back — the write deadline must reap them, releasing the lock.
	var rawConns []net.Conn
	defer func() {
		for _, c := range rawConns {
			c.Close()
		}
	}()
	for i := 0; i < w.Stallers; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		rawConns = append(rawConns, conn)
		if err := wire.WriteFrame(conn, &wire.Request{Op: wire.OpHello, Proto: wire.ProtoV2}); err != nil {
			return nil, err
		}
		var hello wire.Response
		if err := wire.ReadFrame(conn, &hello); err != nil {
			return nil, err
		}
		if err := wire.WriteFrame(conn, &wire.Request{Op: wire.OpCheckout, Seq: 1, Names: []string{fmt.Sprintf("StallLock%d", i)}}); err != nil {
			return nil, err
		}
		for seq := uint64(2); seq < 40; seq++ {
			if err := wire.WriteFrame(conn, &wire.Request{Op: wire.OpGet, Seq: seq, Names: []string{"Blob"}}); err != nil {
				return nil, err
			}
		}
	}
	// Disconnecters: check a lock out, stage work, vanish without a word.
	// The stallers' floods can keep the admission gate full, so the
	// checkout rides out typed sheds like any well-behaved client.
	for i := 0; i < w.Disconnecters; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			return nil, err
		}
		var ws *client.Workspace
		err = client.Retry(context.Background(), func() error {
			ws, err = c.Checkout(fmt.Sprintf("DropLock%d", i))
			return err
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		ws.SetValue(fmt.Sprintf("DropLock%d", i), uint8(seed.KindString), "never committed")
		c.Close() // abrupt: no release, no commit
	}

	// The measured load: pipelined check-ins, each creating a batch of
	// fresh objects (lock-free creates, so the request cost is real
	// transaction work, and mutations hold their admission tokens from the
	// reader's acquire through execution).
	out := &overloadOutcome{}
	var mu sync.Mutex
	var untypedErr atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < w.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				untypedErr.Add(uint64(w.Window * w.Rounds))
				return
			}
			defer c.Close()
			serial := 0
			for round := 0; round < w.Rounds; round++ {
				type inflight struct {
					p     *client.Pending
					start time.Time
				}
				batch := make([]inflight, 0, w.Window)
				for k := 0; k < w.Window; k++ {
					updates := make([]wire.Update, w.BatchSize)
					for u := range updates {
						updates[u] = wire.Update{
							Kind: wire.UpdateCreateObject, Class: "Data",
							Name: fmt.Sprintf("L%dr%dk%du%d", ci, round, k, u),
						}
						serial++
					}
					start := time.Now()
					p, err := c.Send(&wire.Request{Op: wire.OpCheckin, Updates: updates})
					if err != nil {
						untypedErr.Add(1)
						continue
					}
					batch = append(batch, inflight{p: p, start: start})
				}
				for _, f := range batch {
					_, err := f.p.Await()
					lat := time.Since(f.start)
					mu.Lock()
					switch {
					case err == nil:
						out.accepted = append(out.accepted, lat)
					case errors.Is(err, errcode.ErrOverloaded):
						out.shed++
					default:
						out.untyped++
					}
					mu.Unlock()
				}
			}
		}(ci)
	}
	wg.Wait()
	out.untyped += int(untypedErr.Load())

	// Reclamation probe: every chaos lock must become checkout-able once
	// the write deadline (stallers) and disconnect cleanup have run.
	probe, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	out.reclaimed = true
	deadline := time.Now().Add(15 * time.Second)
	var targets []string
	for i := 0; i < w.Stallers; i++ {
		targets = append(targets, fmt.Sprintf("StallLock%d", i))
	}
	for i := 0; i < w.Disconnecters; i++ {
		targets = append(targets, fmt.Sprintf("DropLock%d", i))
	}
	for _, name := range targets {
		for {
			ws, err := probe.Checkout(name)
			if err == nil {
				_ = ws.Abandon()
				break
			}
			if !errors.Is(err, errcode.ErrLocked) && !errors.Is(err, errcode.ErrOverloaded) {
				return nil, fmt.Errorf("probing %s: %w", name, err)
			}
			if time.Now().After(deadline) {
				out.reclaimed = false
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return out, nil
}

// runDrain fires a graceful shutdown into live retried check-in traffic on
// a file-backed group-commit database and replays the reopened database
// against the set of acknowledged check-ins.
func runDrain(w FaultWorkload) (acked, lost int, drainTime time.Duration, drainErr error, err error) {
	dir, err := os.MkdirTemp("", "seed-e14-")
	if err != nil {
		return 0, 0, 0, nil, err
	}
	defer os.RemoveAll(dir)
	db, err := seed.Open(dir, seed.Options{Schema: seed.Figure3Schema(), SyncPolicy: seed.SyncGroupCommit})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	srv := server.New(db)
	srv.SetAdmission(w.Limit, w.Depth, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return 0, 0, 0, nil, err
	}

	var mu sync.Mutex
	var names []string
	var wg sync.WaitGroup
	for wi := 0; wi < w.Writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			ctx := context.Background()
			for n := 0; ; n++ {
				name := fmt.Sprintf("W%dn%d", wi, n)
				// client.Retry rides out transient pushback (overloaded,
				// locked, conflict); the drain refusal is terminal.
				err := client.Retry(ctx, func() error {
					ws, err := c.Checkout()
					if err != nil {
						return err
					}
					ws.CreateObject("Data", name)
					return ws.Commit()
				})
				if err != nil {
					return
				}
				mu.Lock()
				names = append(names, name)
				mu.Unlock()
			}
		}(wi)
	}

	time.Sleep(w.DrainAfter)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	start := time.Now()
	drainErr = srv.Shutdown(ctx)
	drainTime = time.Since(start)
	cancel()
	wg.Wait()
	if cerr := db.Close(); cerr != nil && drainErr == nil {
		drainErr = cerr
	}

	mu.Lock()
	acked = len(names)
	replay := append([]string(nil), names...)
	mu.Unlock()

	re, err := seed.Open(dir, seed.Options{})
	if err != nil {
		return acked, acked, drainTime, drainErr, err
	}
	defer re.Close()
	v := re.View()
	for _, name := range replay {
		if _, ok := v.ObjectByName(name); !ok {
			lost++
		}
	}
	return acked, lost, drainTime, drainErr, nil
}

// E14 runs the standard workload.
func E14() *Result {
	r, _ := E14Stats(DefaultFaultWorkload)
	return r
}

// E14Stats runs the fault harness and returns the report plus the
// machine-readable data.
func E14Stats(w FaultWorkload) (*Result, *E14Data) {
	r := &Result{Name: "E14: fault harness — overload shedding, chaos hygiene, graceful drain"}
	data := &E14Data{
		Experiment:       "E14",
		GoVersion:        runtime.Version(),
		CPUs:             runtime.NumCPU(),
		OverloadFactor:   w.Clients / max(w.Limit+w.Depth, 1),
		Stallers:         w.Stallers,
		Disconnecters:    w.Disconnecters,
		GoroutinesBefore: runtime.NumGoroutine(),
	}
	r.logf("offered load: %d conns x %d in flight (%dx the %d-slot gate), %d-create check-ins, %d stallers, %d disconnecters",
		w.Clients, w.Window, data.OverloadFactor, w.Limit+w.Depth, w.BatchSize, w.Stallers, w.Disconnecters)

	controlled, err := runOverload(w, true)
	if err != nil {
		r.assert(false, "overload pass (admission on): %v", err)
		return r, data
	}
	uncontrolled, err := runOverload(w, false)
	if err != nil {
		r.assert(false, "overload pass (admission off): %v", err)
		return r, data
	}

	data.Accepted = len(controlled.accepted)
	data.Shed = controlled.shed
	data.UntypedRejections = controlled.untyped + uncontrolled.untyped
	p99C, p99U := p99(controlled.accepted), p99(uncontrolled.accepted)
	data.P99Controlled = int64(p99C)
	data.P99Uncontrolled = int64(p99U)
	if p99U > 0 {
		data.P99Ratio = float64(p99C) / float64(p99U)
	}
	data.LocksReclaimed = controlled.reclaimed && uncontrolled.reclaimed

	r.logf("admission on:  %d accepted (p99 %v), %d shed", data.Accepted, p99C.Round(time.Microsecond), data.Shed)
	r.logf("admission off: %d accepted (p99 %v), %d shed", len(uncontrolled.accepted), p99U.Round(time.Microsecond), uncontrolled.shed)
	r.assert(data.Shed > 0, "offered load past the gate produced typed sheds (%d)", data.Shed)
	r.assert(uncontrolled.shed == 0, "no admission gate, no sheds (%d)", uncontrolled.shed)
	r.assert(data.UntypedRejections == 0,
		"every rejection is the typed retryable overloaded error (%d untyped)", data.UntypedRejections)
	// "Bounded" is deliberately loose — a machine-noise-robust multiple of
	// the uncontrolled baseline, with the exact ratio in the artifact. The
	// structural point: accepted requests never inherit the unbounded
	// queueing the uncontrolled server builds up.
	r.assert(p99C <= 2*p99U || p99C <= 5*time.Millisecond,
		"accepted-request p99 bounded: %v controlled vs %v uncontrolled (%.2fx)",
		p99C.Round(time.Microsecond), p99U.Round(time.Microsecond), data.P99Ratio)
	r.assert(data.LocksReclaimed, "every stalled or vanished client's locks reclaimed")

	acked, lost, drainTime, drainErr, err := runDrain(w)
	if err != nil {
		r.assert(false, "drain pass: %v", err)
		return r, data
	}
	data.AckedCheckins = acked
	data.LostCheckins = lost
	data.DrainNanos = int64(drainTime)
	data.DrainClean = drainErr == nil
	r.logf("drain fired into %d writers after %v: %d acked check-ins, drain took %v",
		w.Writers, w.DrainAfter, acked, drainTime.Round(time.Millisecond))
	r.assert(acked > 0, "drain phase drove acknowledged check-ins (%d)", acked)
	r.assert(data.DrainClean, "graceful shutdown drained cleanly (%v)", drainErr)
	r.assert(lost == 0, "differential replay: every acked check-in survived (%d of %d lost)", lost, acked)

	// Leak gate: everything is closed; the goroutine count must settle.
	settleBy := time.Now().Add(10 * time.Second)
	for {
		data.GoroutinesAfter = runtime.NumGoroutine()
		if data.GoroutinesAfter <= data.GoroutinesBefore+2 || time.Now().After(settleBy) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.assert(data.GoroutinesAfter <= data.GoroutinesBefore+2,
		"goroutines settled: %d before, %d after", data.GoroutinesBefore, data.GoroutinesAfter)
	return r, data
}
