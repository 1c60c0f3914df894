// Package shard is the sharded QUEST serving tier (ROADMAP item 2): the
// knowledge base is partitioned by part ID into N in-process shards, each
// owning its own store view and classifier state, behind a Router that
// fans queries out, merges ranked lists deterministically, and survives
// misbehaving shards. The paper's candidate selection (§4.3) keys on part
// ID, so shard routing is free; what this package builds is the
// robustness layer that makes the fan-out trustworthy — per-shard
// deadlines derived from the request budget, hedged second attempts
// (first-response-wins, loser cancelled via context), per-shard
// consecutive-failure circuit breakers, and graceful degradation to
// partial results marked `degraded`. Every attempt is one synchronous call
// in its own goroutine; shards keep no serving pools a wedged attempt
// could exhaust.
package shard

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs/reqlog"
)

// FaultHook runs at the start of every shard query attempt; the chaos
// tests inject deterministic misbehavior through it (internal/faults
// provides slow-shard, error-shard and wedged-shard modes). It may sleep,
// return an error, or block until ctx is cancelled; a nil hook is a
// healthy shard. attempt is 1 for the primary attempt, 2 for the hedge.
type FaultHook func(ctx context.Context, shard, attempt int) error

// ErrShardClosed reports a query dispatched to a closed router.
var ErrShardClosed = errors.New("shard: router closed")

// response is a shard worker's answer.
type response struct {
	nodes []core.ScoredNode
	known bool
	// replica marks an answer served by a read replica; stale additionally
	// marks the replica as lagging beyond the router's MaxApplyLag bound
	// when it answered.
	replica bool
	stale   bool
}

// worker is one in-process serving unit: a store partition (or a shard's
// live slice of a replica) and its own classifier state. It owns no
// goroutines — an attempt is one synchronous call (query) in the
// goroutine that dispatches it, so a wedged attempt never holds up a
// hedge. Routers also run one worker per shard x replica over the
// replica's live view; those carry the replica marker for pprof role
// attribution.
type worker struct {
	id      int
	idStr   string // pre-rendered for pprof labels
	replica bool   // serving a replica slice, not a primary partition
	clf     *core.Classifier
	hook    FaultHook
}

// newWorker builds one shard over store.
func newWorker(id int, store kb.Store, hook FaultHook) *worker {
	return &worker{id: id, idStr: strconv.Itoa(id), clf: core.New(store, core.Jaccard{}), hook: hook}
}

// query runs one attempt to completion. The work runs under pprof labels
// (shard ID, primary vs hedge vs replica role) so CPU profiles attribute
// serving time per shard and show what hedges cost. An attempt whose
// context expired before it finished reports the context's error rather
// than a late answer.
func (w *worker) query(ctx context.Context, partID string, features []string, scatter bool, attempt int) (response, error) {
	role := "primary"
	switch {
	case w.replica:
		role = "replica"
	case attempt > 1:
		role = "hedge"
	}
	var out response
	var err error
	pprof.Do(ctx, pprof.Labels("shard", w.idStr, "role", role), func(ctx context.Context) {
		out, err = w.answer(ctx, partID, features, scatter, attempt)
	})
	if err == nil && ctx.Err() != nil {
		return response{}, ctx.Err()
	}
	return out, err
}

// answer produces the response for one labeled attempt. scatter selects
// all-local-nodes ranking for parts no shard owns; owned mode answers
// only when the shard knows the part.
func (w *worker) answer(ctx context.Context, partID string, features []string, scatter bool, attempt int) (response, error) {
	if w.hook != nil {
		if err := w.hook(ctx, w.id, attempt); err != nil {
			return response{}, err
		}
	}
	known := w.clf.Store.KnownPart(partID)
	if !scatter && !known {
		// Owned mode on a part this shard does not hold: report it so the
		// router falls back to a scatter query, instead of ranking every
		// local node against a part the shard was never asked to own.
		return response{known: false}, nil
	}
	// The stage clock rides the request context from the quest middleware;
	// nil (request logging off) makes the classifier's timing free.
	sc := reqlog.ClockFrom(ctx)
	return response{nodes: w.clf.RecommendNodesTimed(sc, partID, features), known: known}, nil
}
