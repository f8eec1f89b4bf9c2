package client_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/errcode"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := client.RetryWith(context.Background(),
		client.RetryPolicy{Base: time.Millisecond, Cap: 4 * time.Millisecond, Attempts: 6},
		func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("wrapped: %w", errcode.ErrOverloaded)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	boom := errors.New("permanent")
	calls := 0
	err := client.Retry(context.Background(), func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the permanent error unchanged", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retries of a permanent error)", calls)
	}
}

func TestRetryExhaustionKeepsIdentity(t *testing.T) {
	calls := 0
	err := client.RetryWith(context.Background(),
		client.RetryPolicy{Base: time.Microsecond, Cap: time.Microsecond, Attempts: 4},
		func() error { calls++; return errcode.ErrLocked })
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, errcode.ErrLocked) {
		t.Errorf("exhaustion error %v lost the sentinel identity", err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- client.RetryWith(ctx,
			client.RetryPolicy{Base: time.Hour, Cap: time.Hour, Attempts: 10},
			func() error { calls++; return errcode.ErrConflict })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if !errors.Is(err, errcode.ErrConflict) {
			t.Errorf("err = %v, should keep the last attempt's identity", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry did not notice the cancelled context")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, err := range []error{errcode.ErrLocked, errcode.ErrConflict, errcode.ErrOverloaded} {
		if !client.Retryable(fmt.Errorf("w: %w", err)) {
			t.Errorf("Retryable(%v) = false", err)
		}
	}
	for _, err := range []error{errcode.ErrShuttingDown, errcode.ErrNotLocked, client.ErrRemote, errors.New("x")} {
		if client.Retryable(err) {
			t.Errorf("Retryable(%v) = true", err)
		}
	}
}

// TestClassifyTable pins the errors outside the outcome table: whatever
// the client cannot reason about is permanent, wrapped or not. Every table
// entry's class is checked end to end by the server package's
// TestOutcomeTableRoundTrip.
func TestClassifyTable(t *testing.T) {
	for _, err := range []error{client.ErrRemote, errors.New("transport: broken pipe"), nil} {
		if got := client.Classify(err); got != errcode.Permanent {
			t.Errorf("Classify(%v) = %v, want permanent", err, got)
		}
		if got := client.Classify(fmt.Errorf("w: %w", err)); got != errcode.Permanent {
			t.Errorf("Classify(wrapped %v) = %v, want permanent", err, got)
		}
	}
}

// TestRetryableWithRedial: the redial class counts as retryable exactly
// when the caller can re-resolve its endpoint between attempts.
func TestRetryableWithRedial(t *testing.T) {
	for _, c := range []struct {
		err       error
		canRedial bool
		want      bool
	}{
		{errcode.ErrOverloaded, false, true}, // in-place retry never needs a redial
		{errcode.ErrOverloaded, true, true},
		{errcode.ErrShuttingDown, false, false},
		{errcode.ErrShuttingDown, true, true},
		{errcode.ErrNotPrimary, false, false},
		{errcode.ErrNotPrimary, true, true},
		{client.ErrRemote, true, false}, // permanent stays permanent with a dialer in hand
	} {
		if got := client.RetryableWith(fmt.Errorf("w: %w", c.err), c.canRedial); got != c.want {
			t.Errorf("RetryableWith(%v, %v) = %v, want %v", c.err, c.canRedial, got, c.want)
		}
	}
	// Retryable is RetryableWith pinned to one connection.
	if client.Retryable(errcode.ErrNotPrimary) {
		t.Error("Retryable(ErrNotPrimary) = true; a follower never becomes the primary on retry")
	}
}
