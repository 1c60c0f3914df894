package kb

import (
	"reflect"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cas"
	"repro/internal/reldb"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

func TestExtractorBagOfWords(t *testing.T) {
	c := cas.New("The radio the RADIO crackles")
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	e := &Extractor{Model: BagOfWords}
	got := e.Features(c)
	want := []string{"crackles", "radio", "the"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v", got)
	}
}

func TestExtractorBagOfWordsStopwords(t *testing.T) {
	c := cas.New("The radio crackles and the fan hums")
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	e := &Extractor{Model: BagOfWords, Stopwords: textproc.NewStopwordSet()}
	got := e.Features(c)
	want := []string{"crackles", "fan", "hums", "radio"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v", got)
	}
}

func TestExtractorBagOfConcepts(t *testing.T) {
	tax := taxonomy.New()
	if err := tax.Add(taxonomy.Concept{ID: 11, Kind: taxonomy.KindComponent, Path: "Radio",
		Synonyms: map[string][]string{"en": {"radio"}}}); err != nil {
		t.Fatal(err)
	}
	if err := tax.Add(taxonomy.Concept{ID: 22, Kind: taxonomy.KindSymptom, Path: "Crackle",
		Synonyms: map[string][]string{"en": {"crackles", "crackling sound"}}}); err != nil {
		t.Fatal(err)
	}
	c := cas.New("radio crackles with crackling sound")
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	if err := annotate.NewConceptAnnotator(tax).Process(c); err != nil {
		t.Fatal(err)
	}
	e := &Extractor{Model: BagOfConcepts}
	got := e.Features(c)
	want := []string{"11", "22"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v", got)
	}
}

func TestSharedCount(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 2},
		{[]string{"a", "b"}, []string{"a", "b"}, 2},
		{[]string{"a", "c", "e"}, []string{"b", "d", "f"}, 0},
	}
	for i, c := range cases {
		if got := SharedCount(c.a, c.b); got != c.want {
			t.Errorf("case %d: shared = %d, want %d", i, got, c.want)
		}
	}
}

func memFixture() *Memory {
	m := NewMemory()
	m.AddBundle("P1", "E1", []string{"crackle", "radio"})
	m.AddBundle("P1", "E1", []string{"crackle", "radio"}) // duplicate config instance
	m.AddBundle("P1", "E2", []string{"fan", "hum"})
	m.AddBundle("P1", "E1", []string{"radio", "smell"})
	m.AddBundle("P2", "E3", []string{"brake", "squeak"})
	return m
}

func TestMemoryDedupAndCounts(t *testing.T) {
	m := memFixture()
	if m.NodeCount() != 4 {
		t.Fatalf("nodes = %d, want 4 (dedup)", m.NodeCount())
	}
	if m.BundleCount() != 5 {
		t.Fatalf("bundles = %d, want 5", m.BundleCount())
	}
	if m.DistinctCodes() != 3 {
		t.Fatalf("codes = %d", m.DistinctCodes())
	}
}

func TestMemoryCandidates(t *testing.T) {
	m := memFixture()
	// Shares "radio": both E1 nodes, not the fan node.
	cands := m.Candidates("P1", []string{"radio"})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	for _, n := range cands {
		if n.ErrorCode != "E1" {
			t.Fatalf("unexpected candidate %+v", n)
		}
	}
	// Multiple query features do not duplicate nodes.
	cands = m.Candidates("P1", []string{"radio", "crackle"})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	// No shared feature: empty.
	if got := m.Candidates("P1", []string{"zzz"}); len(got) != 0 {
		t.Fatalf("candidates = %v", got)
	}
	// Unknown part: all nodes (paper fallback).
	if got := m.Candidates("P99", []string{"radio"}); len(got) != m.NodeCount() {
		t.Fatalf("fallback candidates = %d", len(got))
	}
}

func TestMemoryCodeFrequencies(t *testing.T) {
	m := memFixture()
	freqs := m.CodeFrequencies("P1")
	if len(freqs) != 2 || freqs[0].Code != "E1" || freqs[0].Count != 3 || freqs[1].Code != "E2" {
		t.Fatalf("freqs = %v", freqs)
	}
	// Unknown part falls back to global counts.
	global := m.CodeFrequencies("P99")
	if len(global) != 3 || global[0].Code != "E1" {
		t.Fatalf("global = %v", global)
	}
}

func TestCodeFrequencyTieBreak(t *testing.T) {
	m := NewMemory()
	m.AddBundle("P", "B", []string{"x"})
	m.AddBundle("P", "A", []string{"y"})
	freqs := m.CodeFrequencies("P")
	if freqs[0].Code != "A" || freqs[1].Code != "B" {
		t.Fatalf("tie-break order = %v", freqs)
	}
}

func TestDBStoreMatchesMemory(t *testing.T) {
	m := memFixture()
	db, _ := reldb.Open("")
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if err := Persist(db, m); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != m.NodeCount() {
		t.Fatalf("node count = %d vs %d", s.NodeCount(), m.NodeCount())
	}
	if s.BundleCount() != m.BundleCount() {
		t.Fatalf("bundle count = %d vs %d", s.BundleCount(), m.BundleCount())
	}
	if !s.KnownPart("P1") || s.KnownPart("P99") {
		t.Fatal("KnownPart wrong")
	}
	// Same candidates (set equality on node IDs).
	want := map[int64]bool{}
	for _, n := range m.Candidates("P1", []string{"radio"}) {
		want[n.ID] = true
	}
	got := s.Candidates("P1", []string{"radio"})
	if len(got) != len(want) {
		t.Fatalf("candidates = %d vs %d", len(got), len(want))
	}
	for _, n := range got {
		if !want[n.ID] {
			t.Fatalf("unexpected candidate %+v", n)
		}
		if len(n.Features) == 0 {
			t.Fatal("features not round-tripped")
		}
	}
	// Same frequencies.
	if !reflect.DeepEqual(s.CodeFrequencies("P1"), m.CodeFrequencies("P1")) {
		t.Fatalf("freqs differ: %v vs %v", s.CodeFrequencies("P1"), m.CodeFrequencies("P1"))
	}
	if !reflect.DeepEqual(s.CodeFrequencies("P99"), m.CodeFrequencies("P99")) {
		t.Fatalf("global freqs differ")
	}
	// Unknown part: all nodes.
	if got := s.Candidates("P99", []string{"radio"}); len(got) != m.NodeCount() {
		t.Fatalf("fallback = %d", len(got))
	}
}

// TestMaterializeMatchesSource: materializing a relational store yields a
// Memory indistinguishable from the one persisted — same node IDs, bundle
// counts and code frequencies — that keeps deduplicating and numbering
// nodes where the source left off.
func TestMaterializeMatchesSource(t *testing.T) {
	m := memFixture()
	db, _ := reldb.Open("")
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if err := Persist(db, m); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got := Materialize(s)
	if !reflect.DeepEqual(got.AllNodes(), m.AllNodes()) {
		t.Fatalf("nodes = %v, want %v", got.AllNodes(), m.AllNodes())
	}
	if got.BundleCount() != m.BundleCount() || got.DistinctCodes() != m.DistinctCodes() {
		t.Fatalf("bundles/codes = %d/%d, want %d/%d",
			got.BundleCount(), got.DistinctCodes(), m.BundleCount(), m.DistinctCodes())
	}
	for _, part := range []string{"P1", "P2", "P99"} {
		if !reflect.DeepEqual(got.CodeFrequencies(part), m.CodeFrequencies(part)) {
			t.Fatalf("%s freqs = %v, want %v", part, got.CodeFrequencies(part), m.CodeFrequencies(part))
		}
	}
	if !reflect.DeepEqual(got.Candidates("P1", []string{"radio"}), m.Candidates("P1", []string{"radio"})) {
		t.Fatal("candidates differ")
	}
	if n := got.AddBundle("P1", "E1", []string{"crackle", "radio"}); n.ID != 1 || got.NodeCount() != 4 {
		t.Fatalf("duplicate bundle made node %d (%d nodes), want node 1 (4 nodes)", n.ID, got.NodeCount())
	}
	if n := got.AddBundle("P3", "E4", []string{"door"}); n.ID != 5 {
		t.Fatalf("new node ID = %d, want 5", n.ID)
	}
}

// TestPartOwnerStable: the partitioning rule is a pure function of the
// part ID and shard count, and n<=1 collapses to shard 0.
func TestPartOwnerStable(t *testing.T) {
	for _, part := range []string{"P000", "P007", "weird part", ""} {
		for _, n := range []int{1, 2, 4, 7} {
			a, b := PartOwner(part, n), PartOwner(part, n)
			if a != b {
				t.Fatalf("PartOwner(%q,%d) unstable: %d vs %d", part, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("PartOwner(%q,%d) = %d out of range", part, n, a)
			}
		}
		if PartOwner(part, 0) != 0 || PartOwner(part, -3) != 0 {
			t.Fatalf("PartOwner(%q, n<=1) must be 0", part)
		}
	}
}

func TestOpenDBRequiresSchema(t *testing.T) {
	db, _ := reldb.Open("")
	if _, err := OpenDB(db); err == nil {
		t.Fatal("OpenDB without schema accepted")
	}
}

func TestFeatureModelString(t *testing.T) {
	if BagOfWords.String() != "bag-of-words" || BagOfConcepts.String() != "bag-of-concepts" {
		t.Fatal("model names wrong")
	}
	if FeatureModel(99).String() != "unknown" {
		t.Fatal("unknown model name wrong")
	}
}
