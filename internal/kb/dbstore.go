package kb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/reldb"
)

// Relational persistence of the knowledge base (paper §2.2/§4.5.1: the kNN
// instances are held "on disk, as is the case in our implementation", with
// on-the-fly indexed access, addressing the memory concerns of
// instance-based classification). The schema mirrors the in-memory
// structure: one row per knowledge node, one row per (node, feature) pair
// for the inverted index, and one row per (part, code) frequency.

// Table names used by the knowledge-base store.
const (
	TableNodes    = "kb_nodes"
	TableFeatures = "kb_features"
	TableCodeFreq = "kb_codefreq"
)

// CreateTables creates the knowledge-base schema.
func CreateTables(db *reldb.DB) error {
	if err := db.CreateTable(reldb.Schema{
		Name: TableNodes,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "part_id", Type: reldb.TString, NotNull: true},
			{Name: "error_code", Type: reldb.TString, NotNull: true},
			{Name: "features", Type: reldb.TString, NotNull: true}, // \x01-joined sorted list
		},
		PrimaryKey: "id",
	}); err != nil {
		return err
	}
	if err := db.CreateIndex(TableNodes, "ix_nodes_part", false, "part_id"); err != nil {
		return err
	}
	if err := db.CreateTable(reldb.Schema{
		Name: TableFeatures,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "node_id", Type: reldb.TInt, NotNull: true},
			{Name: "part_id", Type: reldb.TString, NotNull: true},
			{Name: "feature", Type: reldb.TString, NotNull: true},
		},
		PrimaryKey: "id",
	}); err != nil {
		return err
	}
	if err := db.CreateIndex(TableFeatures, "ix_feat_part_feature", false, "part_id", "feature"); err != nil {
		return err
	}
	if err := db.CreateTable(reldb.Schema{
		Name: TableCodeFreq,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "part_id", Type: reldb.TString, NotNull: true},
			{Name: "error_code", Type: reldb.TString, NotNull: true},
			{Name: "count", Type: reldb.TInt, NotNull: true},
		},
		PrimaryKey: "id",
	}); err != nil {
		return err
	}
	return db.CreateIndex(TableCodeFreq, "ix_freq_part", false, "part_id")
}

// Persist writes an in-memory knowledge base into db (Knowledge Base
// Persistence, pipeline step 3b).
func Persist(db *reldb.DB, m *Memory) error {
	tx := db.Begin()
	for _, n := range m.nodes {
		tx.Insert(TableNodes, reldb.Row{
			n.ID, n.PartID, n.ErrorCode, strings.Join(n.Features, "\x01"),
		})
		for _, f := range n.Features {
			tx.Insert(TableFeatures, reldb.Row{nil, n.ID, n.PartID, f})
		}
	}
	parts := make([]string, 0, len(m.freq))
	for p := range m.freq {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		for _, cc := range SortedCounts(m.freq[p]) {
			tx.Insert(TableCodeFreq, reldb.Row{nil, p, cc.Code, int64(cc.Count)})
		}
	}
	return tx.Commit()
}

// DBStore serves the knowledge base directly from a relational database,
// fetching candidate nodes on the fly through the (part, feature) index.
type DBStore struct {
	db *reldb.DB
}

// OpenDB wraps a database containing a persisted knowledge base.
func OpenDB(db *reldb.DB) (*DBStore, error) {
	for _, t := range []string{TableNodes, TableFeatures, TableCodeFreq} {
		if _, err := db.Count(t); err != nil {
			return nil, fmt.Errorf("kb: missing table %q: %w", t, err)
		}
	}
	return &DBStore{db: db}, nil
}

// NodeCount implements Store.
func (s *DBStore) NodeCount() int {
	n, _ := s.db.Count(TableNodes)
	return n
}

// BundleCount implements Store.
func (s *DBStore) BundleCount() int {
	res, err := s.db.Select(reldb.Query{Table: TableCodeFreq})
	if err != nil {
		return 0
	}
	total := 0
	for _, row := range res.Rows {
		total += int(row[3].(int64))
	}
	return total
}

// KnownPart implements Store.
func (s *DBStore) KnownPart(partID string) bool {
	res, err := s.db.Select(reldb.Query{
		Table: TableNodes,
		Where: []reldb.Cond{reldb.Eq("part_id", partID)},
		Limit: 1,
	})
	return err == nil && len(res.Rows) > 0
}

// Candidates implements Store.
func (s *DBStore) Candidates(partID string, features []string) []*Node {
	if !s.KnownPart(partID) {
		return s.AllNodes()
	}
	seen := map[int64]bool{}
	var ids []int64
	for _, f := range features {
		res, err := s.db.Select(reldb.Query{
			Table: TableFeatures,
			Where: []reldb.Cond{reldb.Eq("part_id", partID), reldb.Eq("feature", f)},
		})
		if err != nil {
			continue
		}
		for _, row := range res.Rows {
			id := row[1].(int64)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	out := make([]*Node, 0, len(ids))
	for _, id := range ids {
		if n, ok := s.node(id); ok {
			out = append(out, n)
		}
	}
	return out
}

// AllNodes implements Store.
func (s *DBStore) AllNodes() []*Node {
	res, err := s.db.Select(reldb.Query{Table: TableNodes, OrderBy: "id"})
	if err != nil {
		return nil
	}
	out := make([]*Node, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, nodeFromRow(row))
	}
	return out
}

func (s *DBStore) node(id int64) (*Node, bool) {
	row, ok := s.db.Get(TableNodes, id)
	if !ok {
		return nil, false
	}
	return nodeFromRow(row), true
}

func nodeFromRow(row reldb.Row) *Node {
	n := &Node{
		ID:        row[0].(int64),
		PartID:    row[1].(string),
		ErrorCode: row[2].(string),
	}
	if fs := row[3].(string); fs != "" {
		n.Features = strings.Split(fs, "\x01")
	}
	return n
}

// CodeFrequencies implements Store.
func (s *DBStore) CodeFrequencies(partID string) []CodeCount {
	res, err := s.db.Select(reldb.Query{
		Table: TableCodeFreq,
		Where: []reldb.Cond{reldb.Eq("part_id", partID)},
	})
	if err != nil {
		return nil
	}
	if len(res.Rows) == 0 {
		// Unknown part: aggregate globally.
		res, err = s.db.Select(reldb.Query{Table: TableCodeFreq})
		if err != nil {
			return nil
		}
		agg := map[string]int{}
		for _, row := range res.Rows {
			agg[row[2].(string)] += int(row[3].(int64))
		}
		return SortedCounts(agg)
	}
	counts := make(map[string]int, len(res.Rows))
	for _, row := range res.Rows {
		counts[row[2].(string)] += int(row[3].(int64))
	}
	return SortedCounts(counts)
}

var _ Store = (*Memory)(nil)
var _ Store = (*DBStore)(nil)
