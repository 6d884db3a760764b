package engine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file generalizes the engine's task-attempt machinery — bounded
// retries, speculative duplicates, exactly-once commits — to attempts that
// cross a process boundary. runStage applies those rules to in-memory
// tasks; Hedge applies the same rules to an arbitrary closure with several
// interchangeable candidates (e.g. the replicas of a cluster shard): a
// failed attempt fails over to the next candidate, a slow attempt gets a
// hedged duplicate on the next candidate after hedgeAfter, and exactly one
// result is committed — the first success — while every losing attempt is
// canceled through its context.

// AttemptStats reports what one Hedge call did.
type AttemptStats struct {
	// Attempts is how many attempts launched in total.
	Attempts int
	// Hedges counts duplicates launched because of HedgeAfter.
	Hedges int
	// Failovers counts attempts launched because a prior one failed.
	Failovers int
	// Winner is the candidate index whose attempt committed (-1 on failure).
	Winner int
}

// PermanentError marks an attempt failure that retrying on another
// candidate cannot fix (a generation conflict, a malformed request); Hedge
// stops immediately and returns the wrapped error.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err so Hedge treats it as non-retryable.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &PermanentError{Err: err}
}

// Hedge runs run against up to 2×candidates attempts (each candidate once,
// then one retry round) spread over candidates interchangeable candidates
// (attempt i targets candidate i%candidates) and returns the first
// successful result. Exactly one result commits; when a winner is chosen
// every other in-flight attempt's context is canceled. Failed attempts
// fail over to the next candidate immediately; with hedgeAfter > 0,
// silence for that long launches a hedged duplicate without waiting for a
// failure (0 disables hedging: pure failover). A silent attempt is bounded
// only by ctx and by hedging. A PermanentError from any attempt aborts
// the call. The zero value of T and the stats so far are returned on error.
func Hedge[T any](ctx context.Context, candidates int, hedgeAfter time.Duration,
	run func(ctx context.Context, candidate, attempt int) (T, error)) (T, AttemptStats, error) {
	var zero T
	st := AttemptStats{Winner: -1}
	if candidates <= 0 {
		return zero, st, errors.New("engine: Hedge needs at least one candidate")
	}
	max := 2 * candidates
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	type outcome struct {
		v    T
		cand int
		err  error
	}
	// Buffered to max so losing attempts never block on send and always
	// exit once canceled.
	results := make(chan outcome, max)
	launch := func() {
		attempt := st.Attempts
		cand := attempt % candidates
		st.Attempts++
		go func() {
			v, err := run(actx, cand, attempt)
			results <- outcome{v: v, cand: cand, err: err}
		}()
	}

	launch()
	pending := 1
	var lastErr error
	for {
		var hedge <-chan time.Time
		if hedgeAfter > 0 && st.Attempts < max {
			t := time.NewTimer(hedgeAfter)
			hedge = t.C
			defer t.Stop()
		}
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				// Exactly-once commit: first success wins, losers are
				// canceled and their results discarded.
				st.Winner = out.cand
				cancelAll()
				return out.v, st, nil
			}
			lastErr = out.err
			var perm *PermanentError
			if errors.As(out.err, &perm) {
				cancelAll()
				return zero, st, perm.Err
			}
			if err := ctx.Err(); err != nil {
				return zero, st, err
			}
			if st.Attempts < max {
				st.Failovers++
				launch()
				pending++
			} else if pending == 0 {
				return zero, st, fmt.Errorf("engine: all %d attempts failed: %w", st.Attempts, lastErr)
			}
		case <-hedge:
			st.Hedges++
			launch()
			pending++
		case <-ctx.Done():
			return zero, st, ctx.Err()
		}
	}
}
