package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one user operation share op; parent is the id of the
// span that caused it (0 for an operation's root span).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	id, parent int64
	op         int64
}

// tracer keeps every span in memory until the run ends. Each goroutine
// records into its own buffer, so recording takes no lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span buffer. A nil *spanBuf records nothing,
// which is how the untraced run calls the same code.
type spanBuf struct {
	t     *tracer
	n     int64 // buffer number: the high bits of its span and op ids
	spans []span
	ops   int64
}

const idShift = 40

// buf returns a new span buffer, or nil when t is nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, n: int64(len(t.bufs) + 1)}
	t.bufs = append(t.bufs, b)
	return b
}

// newOp returns a fresh operation id.
func (b *spanBuf) newOp() int64 {
	if b == nil {
		return 0
	}
	b.ops++
	return b.n<<idShift | b.ops
}

// start opens a span and returns its id.
func (b *spanBuf) start(name string, parent, op int64) int64 {
	if b == nil {
		return 0
	}
	id := b.n<<idShift | int64(len(b.spans)+1)
	b.spans = append(b.spans, span{name: name, start: time.Since(b.t.epoch), id: id, parent: parent, op: op})
	return id
}

// finish closes the span start returned.
func (b *spanBuf) finish(id int64) {
	if b == nil {
		return
	}
	b.spans[id&(1<<idShift-1)-1].end = time.Since(b.t.epoch)
}

// timed records fn as one span and returns its duration.
func (b *spanBuf) timed(name string, parent, op int64, fn func()) time.Duration {
	id := b.start(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.finish(id)
	return d
}

// durations returns the durations of every finished span with the name.
func (t *tracer) durations(name string) Latencies {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out Latencies
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name && s.end > 0 {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write stores every span as one tab-separated line in path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
		}
	}
	t.mu.Unlock()
	return w.Flush()
}
