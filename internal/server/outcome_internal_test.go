package server

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/errcode"
	"repro/internal/wire"
	"repro/seed"
)

// shippedOutcomes pins the errcode table as shipped: the wire code strings,
// their sentinels and retry classes, in table order, which is also the
// seed_responses_total label order. It is written out rather than read from
// errcode.Outcomes, so a lost or edited entry fails the round trip.
var shippedOutcomes = []struct {
	code  string
	err   error
	class errcode.Class
}{
	{"locked", errcode.ErrLocked, errcode.Retry},
	{"not-locked", errcode.ErrNotLocked, errcode.Permanent},
	{"conflict", errcode.ErrConflict, errcode.Retry},
	{"overloaded", errcode.ErrOverloaded, errcode.Retry},
	{"shutting-down", errcode.ErrShuttingDown, errcode.Redial},
	{"not-primary", errcode.ErrNotPrimary, errcode.Redial},
}

// responseCounts scrapes seed_responses_total: its labels in exposition
// order and each label's count.
func responseCounts(t *testing.T, s *Server) ([]string, map[string]float64) {
	t.Helper()
	var b strings.Builder
	s.WriteMetrics(&b)
	var labels []string
	counts := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `seed_responses_total{code="`)
		if !ok {
			continue
		}
		label, num, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseFloat(num, 64)
		if err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		labels = append(labels, label)
		counts[label] = n
	}
	return labels, counts
}

// metricValue returns one series' value from a metrics exposition, or -1
// when the series is absent.
func metricValue(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if num, ok := strings.CutPrefix(line, series+" "); ok {
			if n, err := strconv.ParseFloat(num, 64); err == nil {
				return n
			}
		}
	}
	return -1
}

// TestOutcomeTableRoundTrip sends every outcome in the table through a live
// server and client. An attached procedure vetoes a check-in with an error
// chosen by the created object's name, so the error is wrapped in context
// by the procedure, the engine and the check-in handler before the server
// encodes it. Each outcome must come back matching ErrRemote and exactly
// its own sentinel, with its message printed once, classify as its class,
// and count once under its own seed_responses_total label.
func TestOutcomeTableRoundTrip(t *testing.T) {
	got := errcode.Outcomes()
	if len(got) != len(shippedOutcomes) {
		t.Fatalf("errcode table has %d entries, shipped %d", len(got), len(shippedOutcomes))
	}
	for i, o := range got {
		w := shippedOutcomes[i]
		if o.Code != w.code || !errors.Is(o.Err, w.err) || o.Class != w.class {
			t.Errorf("table entry %d = {%q, %v, %v}, shipped {%q, %v, %v}", i, o.Code, o.Err, o.Class, w.code, w.err, w.class)
		}
	}

	type roundTrip struct {
		veto  error
		code  string // seed_responses_total label the response counts under
		err   error  // the one table sentinel the client error matches; nil for none
		class errcode.Class
	}
	var cases []roundTrip
	for _, o := range shippedOutcomes {
		cases = append(cases, roundTrip{fmt.Errorf("injected %s: %w", o.code, o.err), o.code, o.err, o.class})
	}
	cases = append(cases,
		// The public API's sentinels are the table's: they travel with its codes.
		roundTrip{seed.ErrNotPrimary, "not-primary", errcode.ErrNotPrimary, errcode.Redial},
		roundTrip{fmt.Errorf("stage: %w", seed.ErrTxConflict), "conflict", errcode.ErrConflict, errcode.Retry},
		// An error outside the table is uncoded: ErrRemote only, permanent.
		roundTrip{errors.New("plain veto"), "error", nil, errcode.Permanent},
	)
	veto := map[string]error{}
	for i, c := range cases {
		veto[fmt.Sprintf("O%d", i)] = c.veto
	}

	sch, err := seed.ParseSDL("schema Outcomes version 1\nclass Doc {\n    proc inject\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	db, err := seed.NewMemory(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.RegisterProcedure("inject", func(ev seed.Event) error {
		o, _ := ev.View.Object(ev.Item)
		return veto[o.Name]
	})
	s := New(db)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	labels, _ := responseCounts(t, s)
	wantLabels := []string{"ok", "error"}
	for _, o := range shippedOutcomes {
		wantLabels = append(wantLabels, o.code)
	}
	if !slices.Equal(labels, wantLabels) {
		t.Errorf("seed_responses_total labels = %v, want %v", labels, wantLabels)
	}

	for i, c := range cases {
		ws, err := cli.Checkout()
		if err != nil {
			t.Fatal(err)
		}
		ws.CreateObject("Doc", fmt.Sprintf("O%d", i))
		_, before := responseCounts(t, s)
		err = ws.Commit()
		_, after := responseCounts(t, s)

		if err == nil {
			t.Errorf("%v: check-in accepted", c.veto)
			continue
		}
		if !errors.Is(err, client.ErrRemote) {
			t.Errorf("%v: client error %q does not match ErrRemote", c.veto, err)
		}
		for _, o := range shippedOutcomes {
			if want := errors.Is(c.err, o.err); errors.Is(err, o.err) != want {
				t.Errorf("%v: client error %q matches %s sentinel = %v, want %v", c.veto, err, o.code, !want, want)
			}
		}
		if c.err != nil && strings.Count(err.Error(), c.err.Error()) != 1 {
			t.Errorf("%v: client error %q does not print the server's message once", c.veto, err)
		}
		if got := client.Classify(err); got != c.class {
			t.Errorf("%v: Classify = %v, want %v", c.veto, got, c.class)
		}
		for _, label := range wantLabels {
			want := 0.0
			if label == c.code {
				want = 1
			}
			if d := after[label] - before[label]; d != want {
				t.Errorf("%v: seed_responses_total{code=%q} moved by %v, want %v", c.veto, label, d, want)
			}
		}
	}

	// A newer server may send a code this build does not know. The client
	// must see ErrRemote only, permanent; the server's counter files such a
	// code under "error".
	peer := cannedPeer(t, &wire.Response{Err: "storage: write-ahead log poisoned", Code: "poisoned"})
	pc, err := client.Dial(peer)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	_, err = pc.Get("Doc")
	if !errors.Is(err, client.ErrRemote) || errcode.Of(err).Err != nil || client.Classify(err) != errcode.Permanent {
		t.Errorf("unknown code: client error %q, outcome %+v, class %v; want ErrRemote only, permanent",
			err, errcode.Of(err), client.Classify(err))
	}
	m := newMetrics()
	m.count(&wire.Response{Err: "storage: write-ahead log poisoned", Code: "poisoned"})
	if n := m.codes["error"].Load(); n != 1 {
		t.Errorf("unknown code counted %d times under code=\"error\", want 1", n)
	}
}

// cannedPeer serves one connection that answers hello with protocol v2 and
// every other request with resp.
func cannedPeer(t *testing.T, resp *wire.Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var req wire.Request
			if wire.ReadFrame(conn, &req) != nil {
				return
			}
			out := *resp
			if req.Op == wire.OpHello {
				out = wire.Response{Proto: wire.ProtoV2}
			}
			out.Seq = req.Seq
			if wire.WriteFrame(conn, &out) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}
