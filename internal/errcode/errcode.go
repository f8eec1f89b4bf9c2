// Package errcode is the one table of SEED's typed failure outcomes. Each
// entry ties together everything the system knows about one way a request
// can be refused: the wire code the server puts in Response.Code (which is
// also its seed_responses_total label), the sentinel error both ends match
// with errors.Is, and the retry class a client derives from it. The server
// encodes with Of, the client decodes with Lookup and classifies with Of,
// and the metrics plane enumerates Outcomes — so an outcome is added in
// exactly one place, the table.
//
// The package imports nothing internal, so the engine, the server, the
// client and the public seed API all share the same sentinels.
package errcode

import "errors"

// Class is the retry decision an outcome maps onto.
type Class int

const (
	// Permanent: retrying cannot help — a validation failure, an unknown
	// name, a protocol error, or any error outside the table. Surface it.
	Permanent Class = iota
	// Retry: transient pushback from this server. Retry the same
	// connection with backoff.
	Retry
	// Redial: this server will never stop refusing. Retry only against a
	// different endpoint — the drained server's replacement, the primary.
	Redial
)

// The outcome sentinels. A server wraps them with %w context; a client
// rebuilds them from the wire code, so errors.Is holds on both sides of
// the connection.
var (
	ErrLocked       = errors.New("seed: object is checked out by another client")
	ErrNotLocked    = errors.New("seed: object is not checked out by this client")
	ErrConflict     = errors.New("seed: conflicting concurrent transaction")
	ErrOverloaded   = errors.New("seed: overloaded, request shed by admission control")
	ErrShuttingDown = errors.New("seed: shutting down, new mutations refused")
	ErrNotPrimary   = errors.New("seed: read-only follower, mutate on the primary")
)

// Outcome is one table entry. The zero Outcome stands for "no typed
// outcome": no code, no sentinel, Permanent.
type Outcome struct {
	Code  string // wire code and metric label; never changes once shipped
	Err   error  // sentinel matched with errors.Is
	Class Class
	doc   string
}

var table = [...]Outcome{
	{"locked", ErrLocked, Retry,
		"a checkout or check-in lost against another client's write lock; retry once that client checks in or releases"},
	{"not-locked", ErrNotLocked, Permanent,
		"a check-in touched an object the client never checked out; the client must check it out first"},
	{"conflict", ErrConflict, Retry,
		"two concurrently staged check-ins overlapped (both creating one name, or a batch reaching into another's write set); re-read and re-stage"},
	{"overloaded", ErrOverloaded, Retry,
		"admission control shed the request: the in-flight limit was reached and the wait queue was full; nothing about the request was wrong"},
	{"shutting-down", ErrShuttingDown, Redial,
		"the server is draining for a graceful shutdown and refuses new work; retry against its replacement"},
	{"not-primary", ErrNotPrimary, Redial,
		"the server is a read-only follower and refuses mutations and log subscriptions; retry against the primary"},
}

// Outcomes returns a copy of the table, in table order.
func Outcomes() []Outcome { return append([]Outcome(nil), table[:]...) }

// Of returns the outcome whose sentinel err wraps, or the zero Outcome
// when it wraps none (nil included).
func Of(err error) Outcome {
	for _, o := range table {
		if errors.Is(err, o.Err) {
			return o
		}
	}
	return Outcome{}
}

// Lookup returns the outcome with the given wire code, or the zero Outcome
// for an empty code or one this build does not know (a newer server's).
func Lookup(code string) Outcome {
	for _, o := range table {
		if o.Code == code {
			return o
		}
	}
	return Outcome{}
}
