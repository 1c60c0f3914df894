package main

import (
	"fmt"
	"sync"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/kb"
)

// cvRef is the cross-validation reference over a whole dataset, built
// without qatk.Toolkit from the program's public pieces: every bundle's
// feature sets from a pipeline.New pipeline and kb.Extractor, each fold's
// knowledge base from kb.Memory.AddBundle in corpus order (what
// Toolkit.Train builds, node for node), and every bundle ranked by the
// reference ranking (refRanker) over the knowledge base of the four folds
// it is not in. Its accuracy is the paper's stratified 5-fold Accuracy@k
// (Fig. 11).
type cvRef struct {
	kbs   []*kb.Memory        // per fold, trained on the other four
	lists [][]core.ScoredCode // per corpus bundle
	acc   accuracy
}

// buildCVRef computes the reference on workers goroutines.
func buildCVRef(ds *dataset, model kb.FeatureModel, workers int) (*cvRef, error) {
	bundles := ds.corpus.Bundles
	trainF := make([][]string, len(bundles))
	testF := make([][]string, len(bundles))
	err := parallel(len(bundles), workers, func() (func(i int) error, error) {
		kit, err := newTracedKit(nil, ds, model)
		if err != nil {
			return nil, err
		}
		return func(i int) error {
			b := bundles[i]
			var ok1, ok2 bool
			trainF[i], ok1 = kit.features(b, bundle.TrainingSources(), 0, 0)
			testF[i], ok2 = kit.features(b, bundle.TestSources(), 0, 0)
			if !ok1 || !ok2 {
				return fmt.Errorf("reference features of %s failed", b.RefNo)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	foldOf := make([]int, len(bundles))
	for f, idxs := range ds.split {
		for _, i := range idxs {
			foldOf[i] = f
		}
	}
	ref := &cvRef{lists: make([][]core.ScoredCode, len(bundles))}
	var rankers []*refRanker
	for f := range ds.split {
		mem := kb.NewMemory()
		for i, b := range bundles {
			if foldOf[i] != f {
				mem.AddBundle(b.PartID, b.ErrorCode, trainF[i])
			}
		}
		ref.kbs = append(ref.kbs, mem)
		rankers = append(rankers, newRefRanker(mem))
	}
	err = parallel(len(bundles), workers, func() (func(i int) error, error) {
		return func(i int) error {
			ref.lists[i] = rankers[foldOf[i]].rank(bundles[i].PartID, testF[i])
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range bundles {
		ref.acc.add(ref.lists[i], b.ErrorCode)
	}
	return ref, nil
}

// parallel runs n indexed jobs on workers goroutines; each worker builds
// its own job function (and state) with newJob. The first error wins.
func parallel(n, workers int, newJob func() (func(i int) error, error)) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			job, err := newJob()
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < n; i += workers {
				if err := job(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
