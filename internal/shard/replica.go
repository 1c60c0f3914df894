package shard

import (
	"time"

	"repro/internal/kb"
)

// DefaultMaxApplyLag is the staleness bound replicas are held to before a
// read served from them is flagged stale (-max-apply-lag in questd).
const DefaultMaxApplyLag = 500 * time.Millisecond

// ReplicaTarget is what the router needs from a WAL-shipped read replica
// (internal/repl.Replica implements it structurally; the interface lives
// here so shard does not import the replication layer). A target serves
// the FULL knowledge base — the router carves the per-shard view itself —
// and may swap its backing store at any time (re-sync), so Store is
// fetched per query, never cached.
type ReplicaTarget interface {
	// ID names the replica in health, metrics, and wide events.
	ID() string
	// Ready reports whether the replica has state to serve at all.
	Ready() bool
	// ApplyLag reports how far the replica's applied state trails the
	// primary's log head; the router compares it to MaxApplyLag to decide
	// fresh (hedge-eligible) vs stale (rescue-only, flagged).
	ApplyLag() time.Duration
	// Generation reports the primary generation last applied (/readyz).
	Generation() uint64
	// Store returns the current serving view (nil when not Ready).
	Store() kb.Store
}

// ReplicaHealth is one replica's health view, served by /readyz.
type ReplicaHealth struct {
	ID                    string  `json:"id"`
	Ready                 bool    `json:"ready"`
	LastAppliedGeneration uint64  `json:"last_applied_generation"`
	ApplyLagSeconds       float64 `json:"apply_lag_seconds"`
	// Stale marks a replica lagging beyond the router's MaxApplyLag: it
	// still serves rescues, but its answers carry stale: true.
	Stale bool `json:"stale"`
}

// ReplicaHealth reports every configured replica's apply position.
func (r *Router) ReplicaHealth() []ReplicaHealth {
	out := make([]ReplicaHealth, len(r.cfg.Replicas))
	for i, t := range r.cfg.Replicas {
		lag := t.ApplyLag()
		out[i] = ReplicaHealth{
			ID:                    t.ID(),
			Ready:                 t.Ready(),
			LastAppliedGeneration: t.Generation(),
			ApplyLagSeconds:       lag.Seconds(),
			Stale:                 lag > r.cfg.MaxApplyLag,
		}
	}
	return out
}

// replicaHandle is one shard's serving wrapper around one replica: a
// worker over the shard's live slice of that replica.
type replicaHandle struct {
	t ReplicaTarget
	w *worker
}

// pickReplica chooses the serving replica for shard h: the ready target
// with the smallest apply lag, optionally restricted to fresh ones (lag
// within MaxApplyLag). The second return is the chosen target's lag at
// pick time — the staleness verdict the response carries.
func (r *Router) pickReplica(h *handle, requireFresh bool) (*replicaHandle, time.Duration) {
	var best *replicaHandle
	var bestLag time.Duration
	for _, rh := range h.replicas {
		if !rh.t.Ready() {
			continue
		}
		lag := rh.t.ApplyLag()
		if requireFresh && lag > r.cfg.MaxApplyLag {
			continue
		}
		if best == nil || lag < bestLag {
			best, bestLag = rh, lag
		}
	}
	return best, bestLag
}
