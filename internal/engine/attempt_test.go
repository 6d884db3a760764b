package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHedgeFirstAttemptWins pins the fast path: one attempt, no hedges.
func TestHedgeFirstAttemptWins(t *testing.T) {
	v, st, err := Hedge(context.Background(), 3, 0,
		func(_ context.Context, cand, attempt int) (string, error) {
			return fmt.Sprintf("c%d-a%d", cand, attempt), nil
		})
	if err != nil || v != "c0-a0" {
		t.Fatalf("got %q, %v", v, err)
	}
	if st.Attempts != 1 || st.Hedges != 0 || st.Failovers != 0 || st.Winner != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHedgeFailover pins that a failed attempt fails over to the next
// candidate and the stats record it.
func TestHedgeFailover(t *testing.T) {
	v, st, err := Hedge(context.Background(), 2, 0,
		func(_ context.Context, cand, attempt int) (int, error) {
			if cand == 0 {
				return 0, errors.New("replica down")
			}
			return 7 + attempt, nil
		})
	if err != nil || v != 8 {
		t.Fatalf("got %d, %v", v, err)
	}
	if st.Failovers != 1 || st.Winner != 1 || st.Attempts != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHedgeAllFail pins the exhaustion path: 2×candidates failures abort
// with the last error wrapped.
func TestHedgeAllFail(t *testing.T) {
	calls := 0
	_, st, err := Hedge(context.Background(), 2, 0,
		func(_ context.Context, cand, attempt int) (int, error) {
			calls++
			return 0, fmt.Errorf("boom %d", attempt)
		})
	if err == nil || !strings.Contains(err.Error(), "boom 3") || calls != 4 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if st.Attempts != 4 || st.Winner != -1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHedgeSlowPrimary pins hedging: a silent primary gets a duplicate on
// the next candidate, the duplicate commits, and the slow loser is
// canceled — exactly-once, with the hedge counted.
func TestHedgeSlowPrimary(t *testing.T) {
	var canceled atomic.Bool
	v, st, err := Hedge(context.Background(), 2, 5*time.Millisecond,
		func(ctx context.Context, cand, attempt int) (int, error) {
			if cand == 0 {
				select {
				case <-ctx.Done():
					canceled.Store(true)
					return 0, ctx.Err()
				case <-time.After(2 * time.Second):
					return 1, nil
				}
			}
			return 2, nil
		})
	if err != nil || v != 2 {
		t.Fatalf("got %d, %v", v, err)
	}
	if st.Hedges != 1 || st.Winner != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The losing primary sees cancellation promptly.
	deadline := time.Now().Add(time.Second)
	for !canceled.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !canceled.Load() {
		t.Fatal("losing attempt was not canceled")
	}
}

// TestHedgePermanent pins that a PermanentError stops retrying instantly.
func TestHedgePermanent(t *testing.T) {
	calls := 0
	sentinel := errors.New("generation conflict")
	_, st, err := Hedge(context.Background(), 4, 0,
		func(_ context.Context, cand, attempt int) (int, error) {
			calls++
			return 0, Permanent(sentinel)
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v, want sentinel", err)
	}
	if calls != 1 || st.Attempts != 1 {
		t.Fatalf("permanent error retried: calls=%d %+v", calls, st)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must be nil")
	}
}

// TestHedgeContextCancel pins that caller cancellation aborts the call.
func TestHedgeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, _, err := Hedge(ctx, 2, 0,
		func(ctx context.Context, cand, attempt int) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

// TestHedgeNoCandidates pins the degenerate input.
func TestHedgeNoCandidates(t *testing.T) {
	_, _, err := Hedge(context.Background(), 0, 0,
		func(_ context.Context, _, _ int) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("want error for zero candidates")
	}
}
