package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/qatk"
	"repro/internal/textproc"
)

// folds is the cross-validation fold count of the paper's evaluation; one
// fold is held out, the other four train the knowledge base.
const folds = 5

// dataset is one seed's paper-scale corpus, split into stratified folds.
// train and held are the split the serving workloads use: fold seed mod 5
// held out, the other four trained on.
type dataset struct {
	corpus *datagen.Corpus
	split  [][]int // eval.StratifiedFolds: corpus indexes per fold
	fold   int
	train  []*bundle.Bundle
	held   []*bundle.Bundle
}

// makeDataset generates the datagen.DefaultConfig corpus under seed and
// splits it with eval.StratifiedFolds under the same seed.
func makeDataset(seed int64) (*dataset, error) {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	c, err := datagen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	ds := &dataset{corpus: c, split: eval.StratifiedFolds(c.Bundles, folds, seed), fold: int(uint64(seed) % folds)}
	ds.train, ds.held, _ = ds.splitAt(ds.fold)
	return ds, nil
}

// splitAt returns fold f's training bundles and held-out bundles, both in
// corpus order, with the held-out bundles' corpus indexes.
func (ds *dataset) splitAt(f int) (train, held []*bundle.Bundle, heldIdx []int) {
	test := map[int]bool{}
	for _, i := range ds.split[f] {
		test[i] = true
	}
	for i, b := range ds.corpus.Bundles {
		if test[i] {
			held = append(held, b)
			heldIdx = append(heldIdx, i)
		} else {
			train = append(train, b)
		}
	}
	return train, held, heldIdx
}

// toolkit is the QATK configuration a workload trains with.
func (ds *dataset) toolkit(model kb.FeatureModel) *qatk.Toolkit {
	return qatk.New(ds.corpus.Taxonomy, qatk.WithModel(model))
}

// query is one recommendation request built from a bundle's test-phase
// report sources.
type query struct {
	ref      string
	part     string
	features []string
	code     string // the bundle's true error code
}

// variant returns the query's features for pass drop over the pool: pass 0
// is the query itself; pass d > 0 leaves out feature (d-1) mod n, so every
// pass sends a query not sent before (a one-feature query stays as is).
func (q query) variant(drop int) []string {
	n := len(q.features)
	if drop == 0 || n < 2 {
		return q.features
	}
	i := (drop - 1) % n
	return append(append(make([]string, 0, n-1), q.features[:i]...), q.features[i+1:]...)
}

// queries extracts the test-source feature set of every bundle using the
// toolkit, on workers goroutines. Bundles without features are skipped:
// /api/recommend rejects an empty feature list.
func queries(tk *qatk.Toolkit, bundles []*bundle.Bundle, workers int) ([]query, error) {
	feats := make([][]string, len(bundles))
	err := parallel(len(bundles), workers, func() (func(i int) error, error) {
		return func(i int) (err error) {
			if feats[i], err = tk.Features(bundles[i], bundle.TestSources()); err != nil {
				return fmt.Errorf("features of %s: %w", bundles[i].RefNo, err)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]query, 0, len(bundles))
	for i, b := range bundles {
		if len(feats[i]) > 0 {
			out = append(out, query{ref: b.RefNo, part: b.PartID, features: feats[i], code: b.ErrorCode})
		}
	}
	return out, nil
}

// --- traced knowledge-base build ---------------------------------------------

// buildStats counts what the traced build and classify paths processed.
type buildStats struct {
	docs, failed, tokens, concepts int
}

// tracedKit rebuilds what qatk.Toolkit does from the program's public
// pieces, each wrapped: the engines (textproc, annotate) in a pipeline
// built with pipeline.New, the kb.Extractor, kb.Memory.AddBundle, and the
// store behind core.New. It is single-goroutine: cur is the parent span.
type tracedKit struct {
	tr    *tracer
	cur   *spanCursor
	pipe  *pipeline.Pipeline
	ex    *kb.Extractor
	stats buildStats
	store storeStats
}

// newTracedKit mirrors qatk.Toolkit.Pipeline for the default options:
// tokenizer and language detector always, the concept annotator for the
// bag-of-concepts model.
func newTracedKit(tr *tracer, ds *dataset, model kb.FeatureModel) (*tracedKit, error) {
	k := &tracedKit{tr: tr, cur: &spanCursor{}, ex: &kb.Extractor{Model: model}}
	engines := []pipeline.Engine{
		&timedEngine{Engine: textproc.Tokenizer{}, span: "textproc.tokenize", tr: tr, cur: k.cur,
			count: func(c *cas.CAS) { k.stats.tokens += len(c.Select(textproc.TypeToken)) }},
		&timedEngine{Engine: textproc.LanguageDetector{}, span: "textproc.langdetect", tr: tr, cur: k.cur},
	}
	if model == kb.BagOfConcepts {
		engines = append(engines, &timedEngine{
			Engine: annotate.NewConceptAnnotator(ds.corpus.Taxonomy), span: "annotate.annotate", tr: tr, cur: k.cur,
			count: func(c *cas.CAS) { k.stats.concepts += len(c.Select(annotate.TypeConcept)) }})
	}
	p, err := pipeline.New(engines...)
	if err != nil {
		return nil, err
	}
	k.pipe = p
	return k, nil
}

// features runs the wrapped pipeline and extractor over one bundle under
// the span parent; a failed document is counted and returns ok=false.
func (k *tracedKit) features(b *bundle.Bundle, sources []bundle.Source, parent, req uint64) ([]string, bool) {
	c := b.CAS(sources...)
	pid := k.tr.newID()
	k.cur.parent, k.cur.req = pid, req
	start := time.Now()
	err := k.pipe.Process(c)
	k.tr.add(pid, parent, req, "pipeline.process", start, time.Now())
	k.stats.docs++
	if err != nil {
		k.stats.failed++
		return nil, false
	}
	start = time.Now()
	f := k.ex.Features(c)
	k.tr.add(k.tr.newID(), parent, req, "kb.extract", start, time.Now())
	return f, true
}

// train builds the knowledge base bundle by bundle, as Toolkit.TrainRun's
// consumer does.
func (k *tracedKit) train(bundles []*bundle.Bundle) (*kb.Memory, error) {
	mem := kb.NewMemory()
	for _, b := range bundles {
		req := k.tr.newID()
		root := k.tr.newID()
		start := time.Now()
		f, ok := k.features(b, bundle.TrainingSources(), root, req)
		if ok {
			t := time.Now()
			mem.AddBundle(b.PartID, b.ErrorCode, f)
			k.tr.add(k.tr.newID(), root, req, "kb.add_bundle", t, time.Now())
		}
		k.tr.add(root, 0, req, "bundle.train", start, time.Now())
	}
	if k.stats.failed > 0 {
		return nil, fmt.Errorf("traced build: %d documents failed", k.stats.failed)
	}
	return mem, nil
}

// classifier wraps the store in the timing decorator and builds the
// classifier over it, parenting candidate spans under cur.
func (k *tracedKit) classifier(store kb.Store) *core.Classifier {
	ts := &timedStore{Store: store, tr: k.tr, stats: &k.store, cutoff: core.DefaultNodeCutoff,
		parentOf: func(string, []string) (uint64, uint64) { return k.cur.parent, k.cur.req }}
	return core.New(ts, core.Jaccard{})
}

// sameKB reports whether two knowledge bases hold the same nodes in the
// same order (IDs, parts, codes, features) and the same bundle count.
func sameKB(a, b *kb.Memory) error {
	if a.NodeCount() != b.NodeCount() || a.BundleCount() != b.BundleCount() {
		return fmt.Errorf("knowledge bases differ: %d/%d nodes, %d/%d bundles",
			a.NodeCount(), b.NodeCount(), a.BundleCount(), b.BundleCount())
	}
	an, bn := a.AllNodes(), b.AllNodes()
	for i := range an {
		x, y := an[i], bn[i]
		if x.ID != y.ID || x.PartID != y.PartID || x.ErrorCode != y.ErrorCode || !slices.Equal(x.Features, y.Features) {
			return fmt.Errorf("knowledge bases differ at node %d", x.ID)
		}
	}
	return nil
}
