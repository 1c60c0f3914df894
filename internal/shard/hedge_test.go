package shard

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/kb"
)

// Satellite: hedged-request hygiene. The losing attempt's context must be
// cancelled once the winner returns, and the router must not leak
// goroutines — asserted by bracketing the whole exercise with goroutine
// counts.

// recordingHook observes every attempt's context so the test can assert
// cancellation, and makes the first attempt slow enough that the hedge
// always wins.
type recordingHook struct {
	mu       sync.Mutex
	attempts []attemptRecord
}

type attemptRecord struct {
	shard, attempt int
	ctx            context.Context
}

func (h *recordingHook) hook(ctx context.Context, shard, attempt int) error {
	h.mu.Lock()
	h.attempts = append(h.attempts, attemptRecord{shard, attempt, ctx})
	h.mu.Unlock()
	if attempt == 1 {
		// Losing attempt: stall until cancelled or a long fallback fires.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
			return nil
		}
	}
	return nil
}

func (h *recordingHook) record(shard, attempt int) (attemptRecord, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.attempts {
		if r.shard == shard && r.attempt == attempt {
			return r, true
		}
	}
	return attemptRecord{}, false
}

func TestHedgeCancelsLosingAttempt(t *testing.T) {
	before := runtime.NumGoroutine()

	src := buildKB(5, 12, 10, 250)
	hook := &recordingHook{}
	r := newTestRouter(t, src, 4, func(cfg *Config) {
		cfg.HedgeAfter = 2 * time.Millisecond
		cfg.ShardTimeout = time.Second
		cfg.Hook = hook.hook
	})

	part := "P004"
	if !src.KnownPart(part) {
		t.Fatalf("fixture part %s not in knowledge base", part)
	}
	res, err := r.Query(context.Background(), part, []string{"f03", "f11", "f27"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged {
		t.Fatal("query was not hedged")
	}
	if res.Degraded {
		t.Fatal("hedged query unexpectedly degraded")
	}

	// The losing first attempt's context must be cancelled promptly after
	// the hedge wins — not left to run out its 500ms stall.
	loser, ok := hook.record(kb.PartOwner(part, 4), 1)
	if !ok {
		t.Fatal("first attempt never reached the fault hook")
	}
	select {
	case <-loser.ctx.Done():
	case <-time.After(200 * time.Millisecond):
		t.Fatal("losing attempt's context was not cancelled")
	}
	if err := loser.ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("losing attempt ctx.Err() = %v, want context.Canceled", err)
	}

	// Once the query has returned and the router is closed, every attempt
	// goroutine — the cancelled loser included — must have exited.
	r.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after close", before, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgesDoNotQueueBehindWedgedAttempts: a shard has no serving pool
// for wedged attempts to exhaust. With every first attempt wedged until
// its deadline, each of several concurrent queries must still be
// answered by its own hedge after HedgeAfter, not after ShardTimeout.
func TestHedgesDoNotQueueBehindWedgedAttempts(t *testing.T) {
	const (
		hedgeAfter   = 5 * time.Millisecond
		shardTimeout = 300 * time.Millisecond
		queries      = 4
	)
	src := buildKB(5, 12, 10, 250)
	wedge := faults.ShardFault{Mode: faults.ShardWedge, FirstAttempts: 1}
	r := newTestRouter(t, src, 2, func(cfg *Config) {
		cfg.HedgeAfter = hedgeAfter
		cfg.ShardTimeout = shardTimeout
		cfg.Hook = faults.ShardHook(map[int]faults.ShardFault{0: wedge, 1: wedge})
	})
	part := "P004"
	if !src.KnownPart(part) {
		t.Fatalf("fixture part %s not in knowledge base", part)
	}

	type outcome struct {
		res     *Result
		err     error
		elapsed time.Duration
	}
	out := make(chan outcome, queries)
	for i := 0; i < queries; i++ {
		go func() {
			start := time.Now()
			res, err := r.Query(context.Background(), part, []string{"f03", "f11", "f27"})
			out <- outcome{res, err, time.Since(start)}
		}()
	}
	for i := 0; i < queries; i++ {
		o := <-out
		if o.err != nil {
			t.Fatalf("query: %v", o.err)
		}
		if !o.res.Hedged || o.res.Degraded {
			t.Errorf("query hedged=%v degraded=%v, want hedged and not degraded", o.res.Hedged, o.res.Degraded)
		}
		if o.elapsed >= shardTimeout/2 {
			t.Errorf("query took %v: the hedge waited behind wedged attempts (ShardTimeout %v)", o.elapsed, shardTimeout)
		}
	}
}
