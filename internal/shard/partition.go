package shard

import "repro/internal/kb"

// PartitionStores splits one knowledge-base store into n part-owned views,
// the Stores slice a Router serves. Every view reads the same in-memory
// knowledge base: a *kb.Memory source is shared as-is, any other store is
// materialized once. Node IDs are preserved, which is what makes the
// router's merge rank exactly like the unsharded classifier.
func PartitionStores(src kb.Store, n int) []kb.Store {
	if n <= 1 {
		n = 1
	}
	mem, ok := src.(*kb.Memory)
	if !ok {
		mem = kb.Materialize(src)
	}
	source := func() kb.Store { return mem }
	out := make([]kb.Store, n)
	for i := range out {
		out[i] = &partView{source: source, shard: i, n: n}
	}
	return out
}

// partView is shard `shard` of `n`'s slice of a knowledge base: every
// node, candidate and code count of the parts kb.PartOwner assigns to it.
// It answers the kb.Store contract for that slice over whatever store
// source returns at the time of the call, so a replica re-sync that swaps
// the backing store is picked up on the next call; a nil source (a
// replica still bootstrapping) is an empty slice. Primary shards share
// one source; each replica worker views its replica's live store.
type partView struct {
	source   func() kb.Store
	shard, n int
}

// owns reports whether partID belongs to this shard's slice.
func (v *partView) owns(partID string) bool {
	return kb.PartOwner(partID, v.n) == v.shard
}

// known reports whether src holds partID for this slice.
func (v *partView) known(src kb.Store, partID string) bool {
	return v.owns(partID) && src.KnownPart(partID)
}

// KnownPart implements kb.Store.
func (v *partView) KnownPart(partID string) bool {
	src := v.source()
	return src != nil && v.known(src, partID)
}

// Candidates implements kb.Store: the source's inverted index drives
// selection for a known owned part; anything else falls back to every
// node of the slice (the scatter path ranks all shards' slices,
// reproducing the unsharded all-nodes fallback).
func (v *partView) Candidates(partID string, features []string) []*kb.Node {
	src := v.source()
	if src == nil {
		return nil
	}
	if v.known(src, partID) {
		return src.Candidates(partID, features)
	}
	return v.ownedNodes(src)
}

// AllNodes implements kb.Store.
func (v *partView) AllNodes() []*kb.Node {
	src := v.source()
	if src == nil {
		return nil
	}
	return v.ownedNodes(src)
}

// NodeCount implements kb.Store.
func (v *partView) NodeCount() int { return len(v.AllNodes()) }

// ownedNodes filters src's nodes, in place, down to this slice.
func (v *partView) ownedNodes(src kb.Store) []*kb.Node {
	all := src.AllNodes()
	out := all[:0]
	for _, node := range all {
		if v.owns(node.PartID) {
			out = append(out, node)
		}
	}
	return out
}

// CodeFrequencies implements kb.Store: a known owned part answers from
// the source; anything else counts data bundles over the slice's parts —
// the shard's view of the global frequencies.
func (v *partView) CodeFrequencies(partID string) []kb.CodeCount {
	src := v.source()
	if src == nil {
		return nil
	}
	if v.known(src, partID) {
		return src.CodeFrequencies(partID)
	}
	return kb.SortedCounts(v.bundleCounts(src))
}

// BundleCount implements kb.Store: the data bundles of the slice's parts.
func (v *partView) BundleCount() int {
	src := v.source()
	if src == nil {
		return 0
	}
	total := 0
	for _, n := range v.bundleCounts(src) {
		total += n
	}
	return total
}

// bundleCounts counts the slice's data bundles per error code.
func (v *partView) bundleCounts(src kb.Store) map[string]int {
	agg := map[string]int{}
	seen := map[string]bool{}
	for _, node := range v.ownedNodes(src) {
		if seen[node.PartID] {
			continue
		}
		seen[node.PartID] = true
		for _, cc := range src.CodeFrequencies(node.PartID) {
			agg[cc.Code] += cc.Count
		}
	}
	return agg
}

var _ kb.Store = (*partView)(nil)
