package shard

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kb"
	"repro/internal/reldb"
)

// partitionKB is buildKB with every part's first configuration instance
// trained twice, so each part holds more data bundles than knowledge nodes
// and a count over nodes cannot pass for a count over bundles.
func partitionKB(t *testing.T) *kb.Memory {
	t.Helper()
	m := buildKB(17, 15, 12, 300)
	nodes := m.NodeCount()
	seen := map[string]bool{}
	for _, n := range m.AllNodes() {
		if !seen[n.PartID] {
			seen[n.PartID] = true
			m.AddBundle(n.PartID, n.ErrorCode, n.Features)
		}
	}
	if m.NodeCount() != nodes || m.BundleCount() != 300+len(seen) {
		t.Fatalf("duplicated bundles: %d nodes, %d bundles; want %d nodes, %d bundles",
			m.NodeCount(), m.BundleCount(), nodes, 300+len(seen))
	}
	return m
}

// persistKB writes m into a fresh database and serves it from there.
func persistKB(t *testing.T, m *kb.Memory) kb.Store {
	t.Helper()
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if err := kb.Persist(db, m); err != nil {
		t.Fatal(err)
	}
	s, err := kb.OpenDB(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allFeatures is the whole buildKB vocabulary as one query.
func allFeatures() []string {
	feats := make([]string, 50)
	for f := range feats {
		feats[f] = fmt.Sprintf("f%02d", f)
	}
	return feats
}

// TestPartitionStoresPartition: the views cover the store exactly once —
// every node lands on its part's owner with its global node ID preserved,
// the bundle counts add up to the source's, and the per-part views are
// identical to the source store's.
func TestPartitionStoresPartition(t *testing.T) {
	src := partitionKB(t)
	const n = 4
	shards := PartitionStores(src, n)
	total, bundles := 0, 0
	for i := 0; i < n; i++ {
		total += shards[i].NodeCount()
		bundles += shards[i].BundleCount()
	}
	if total != src.NodeCount() {
		t.Fatalf("partitioned nodes = %d, want %d", total, src.NodeCount())
	}
	if bundles != src.BundleCount() {
		t.Fatalf("partitioned bundles = %d, want %d", bundles, src.BundleCount())
	}

	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		for _, node := range shards[i].AllNodes() {
			if seen[node.ID] {
				t.Fatalf("node %d appears in more than one shard", node.ID)
			}
			seen[node.ID] = true
			if owner := kb.PartOwner(node.PartID, n); owner != i {
				t.Fatalf("node %d (part %s) on shard %d, owner is %d", node.ID, node.PartID, i, owner)
			}
		}
	}

	for p := 0; p < 15; p++ {
		part := fmt.Sprintf("P%03d", p)
		if !src.KnownPart(part) {
			continue
		}
		owner := kb.PartOwner(part, n)
		for i := 0; i < n; i++ {
			if got := shards[i].KnownPart(part); got != (i == owner) {
				t.Fatalf("shard %d KnownPart(%s) = %v, owner is %d", i, part, got, owner)
			}
		}
		got := nodeIDs(shards[owner].Candidates(part, allFeatures()))
		want := nodeIDs(src.Candidates(part, allFeatures()))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("part %s: owner candidates %v, want %v", part, got, want)
		}
		if got, want := shards[owner].CodeFrequencies(part), src.CodeFrequencies(part); !reflect.DeepEqual(got, want) {
			t.Errorf("part %s: owner code frequencies %v, want %v", part, got, want)
		}
	}
}

// TestPartitionStoresUnknownPartFallback: a view keeps the store contract
// — Candidates for a part it does not own falls back to its own AllNodes,
// and CodeFrequencies and BundleCount count the data bundles of the
// owned parts, not their knowledge nodes.
func TestPartitionStoresUnknownPartFallback(t *testing.T) {
	src := partitionKB(t)
	s := PartitionStores(src, 4)[1]
	got := nodeIDs(s.Candidates("PXXX", []string{"f01"}))
	want := nodeIDs(s.AllNodes())
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown-part candidates = %v, want local AllNodes %v", got, want)
	}

	bundles, nodes := map[string]int{}, map[string]int{}
	total := 0
	for p := 0; p < 15; p++ {
		part := fmt.Sprintf("P%03d", p)
		if !src.KnownPart(part) || kb.PartOwner(part, 4) != 1 {
			continue
		}
		for _, cc := range src.CodeFrequencies(part) {
			bundles[cc.Code] += cc.Count
			total += cc.Count
		}
	}
	for _, node := range s.AllNodes() {
		nodes[node.ErrorCode]++
	}
	if reflect.DeepEqual(bundles, nodes) {
		t.Fatal("fixture cannot tell bundle counts from node counts")
	}
	freq := s.CodeFrequencies("PXXX")
	if len(freq) != len(bundles) {
		t.Fatalf("fallback code frequencies: %d entries, want %d", len(freq), len(bundles))
	}
	for _, cc := range freq {
		if cc.Count != bundles[cc.Code] {
			t.Errorf("code %s count = %d, want %d bundles", cc.Code, cc.Count, bundles[cc.Code])
		}
	}
	if !sort.SliceIsSorted(freq, func(i, j int) bool {
		if freq[i].Count != freq[j].Count {
			return freq[i].Count > freq[j].Count
		}
		return freq[i].Code < freq[j].Code
	}) {
		t.Errorf("fallback code frequencies out of order: %v", freq)
	}
	if got := s.BundleCount(); got != total {
		t.Errorf("BundleCount = %d, want %d bundles", got, total)
	}
}

// TestPartitionStoresDBMatchesMemory: partitioning a relational store
// gives views identical to partitioning the in-memory store it was
// persisted from.
func TestPartitionStoresDBMatchesMemory(t *testing.T) {
	mem := partitionKB(t)
	fromMem := PartitionStores(mem, 4)
	fromDB := PartitionStores(persistKB(t, mem), 4)
	parts := []string{"PXXX"}
	for p := 0; p < 15; p++ {
		parts = append(parts, fmt.Sprintf("P%03d", p))
	}
	for i := range fromMem {
		a, b := fromMem[i], fromDB[i]
		if !reflect.DeepEqual(a.AllNodes(), b.AllNodes()) {
			t.Fatalf("shard %d: nodes differ", i)
		}
		if a.NodeCount() != b.NodeCount() || a.BundleCount() != b.BundleCount() {
			t.Fatalf("shard %d: counts %d/%d vs %d/%d",
				i, a.NodeCount(), a.BundleCount(), b.NodeCount(), b.BundleCount())
		}
		for _, part := range parts {
			if a.KnownPart(part) != b.KnownPart(part) {
				t.Fatalf("shard %d: KnownPart(%s) differs", i, part)
			}
			if !reflect.DeepEqual(a.Candidates(part, allFeatures()), b.Candidates(part, allFeatures())) {
				t.Fatalf("shard %d: Candidates(%s) differ", i, part)
			}
			if !reflect.DeepEqual(a.CodeFrequencies(part), b.CodeFrequencies(part)) {
				t.Fatalf("shard %d: CodeFrequencies(%s) = %v vs %v",
					i, part, a.CodeFrequencies(part), b.CodeFrequencies(part))
			}
		}
	}
}

// TestPartViewSourceSwap: a view answers from whatever its source returns
// at call time — nothing while the source is nil (a bootstrapping
// replica), and the new store on the first call after a swap (a re-sync).
func TestPartViewSourceSwap(t *testing.T) {
	var cur kb.Store
	v := &partView{source: func() kb.Store { return cur }, shard: kb.PartOwner("P1", 2), n: 2}

	if v.KnownPart("P1") || len(v.Candidates("P1", []string{"x"})) != 0 || len(v.AllNodes()) != 0 {
		t.Fatal("view over a nil source is not empty")
	}
	if v.NodeCount() != 0 || v.BundleCount() != 0 || len(v.CodeFrequencies("P1")) != 0 {
		t.Fatal("view over a nil source counts something")
	}

	a := kb.NewMemory()
	a.AddBundle("P1", "EA", []string{"x", "y"})
	cur = a
	if !v.KnownPart("P1") {
		t.Fatal("P1 unknown after the source appeared")
	}
	if got := v.Candidates("P1", []string{"x"}); len(got) != 1 || got[0].ErrorCode != "EA" {
		t.Fatalf("candidates from A = %v", got)
	}

	b := kb.NewMemory()
	b.AddBundle("P1", "EB", []string{"x"})
	b.AddBundle("P1", "EB", []string{"x"})
	cur = b
	if got := v.Candidates("P1", []string{"x"}); len(got) != 1 || got[0].ErrorCode != "EB" {
		t.Fatalf("candidates after the swap = %v, want B's node", got)
	}
	if got := v.CodeFrequencies("P1"); !reflect.DeepEqual(got, []kb.CodeCount{{Code: "EB", Count: 2}}) {
		t.Fatalf("code frequencies after the swap = %v, want B's", got)
	}
	if v.NodeCount() != 1 || v.BundleCount() != 2 {
		t.Fatalf("counts after the swap = %d nodes, %d bundles; want 1, 2", v.NodeCount(), v.BundleCount())
	}
}

func nodeIDs(nodes []*kb.Node) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
