package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/kb"
)

// The batch-train-classify workload: offline and single-goroutine, on
// bag-of-concepts. Cycle c trains the knowledge base with
// qatk.Toolkit.Train on every fold but fold (seed+c) mod 5, then classifies
// that fold's bundles from raw text (Toolkit.Features, then
// Classifier.Recommend); the first five cycles are the paper's 5-fold
// cross-validation.

// batchModel is the feature model of the batch workload.
const batchModel = kb.BagOfConcepts

// checkList compares a ranking with the reference bit for bit.
func checkList(got, want []core.ScoredCode) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d codes, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Code != want[i].Code || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: %s %v, reference %s %v", i+1, got[i].Code, got[i].Score, want[i].Code, want[i].Score)
		}
	}
	return nil
}

// batchCycle is what one train-and-classify cycle measured.
type batchCycle struct {
	trainRate float64   // bundles/s of Toolkit.Train
	classify  []float64 // per-bundle classification latency (ms)
	busy      time.Duration
	mem       *kb.Memory
	heapMB    float64 // what the trained knowledge base adds to the live heap
}

// runBatchCycle trains on every fold but f and classifies fold f,
// checking the knowledge base and every ranking against the reference
// into t. With heap set it also measures what training added to the live
// heap.
func runBatchCycle(ds *dataset, ref *cvRef, f int, t *tally, heap bool) (*batchCycle, error) {
	train, held, heldIdx := ds.splitAt(f)
	tk := ds.toolkit(batchModel)
	var before float64
	if heap {
		before = liveHeapMB()
	} else {
		runtime.GC()
	}
	start := time.Now()
	mem, err := tk.Train(train)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	cy := &batchCycle{trainRate: float64(len(train)) / time.Since(start).Seconds(), mem: mem}
	if heap {
		cy.heapMB = liveHeapMB() - before
	}
	t.add(sameKB(ref.kbs[f], mem))
	clf := tk.Classifier(mem)
	cy.classify = make([]float64, 0, len(held))
	for i, b := range held {
		start := time.Now()
		f, err := tk.Features(b, bundle.TestSources())
		var list []core.ScoredCode
		if err == nil {
			list = clf.Recommend(b.PartID, f)
		}
		d := time.Since(start)
		cy.busy += d
		cy.classify = append(cy.classify, ms(d))
		if err == nil {
			err = checkList(list, ref.lists[heldIdx[i]])
		}
		if err != nil {
			err = fmt.Errorf("classify %s: %w", b.RefNo, err)
		}
		t.add(err)
	}
	return cy, nil
}

// runBatch runs the untraced batch workload: at least one cycle per fold,
// then more for the rest of the run's time.
func runBatch(o options) (*report, error) {
	rep := newReport(o)
	var ds *dataset
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		ds = nil
		runtime.GC()
		start := time.Now()
		var err error
		if ds, err = makeDataset(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ref, err := buildCVRef(ds, batchModel, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	var t tally
	var rates, p50s, p95s, classifyRates []float64
	var heapMB float64
	n := 0
	deadline := time.Now().Add(o.duration)
	c := 0
	for ; c < folds || time.Now().Before(deadline); c++ {
		cy, err := runBatchCycle(ds, ref, (ds.fold+c)%folds, &t, c == 0)
		if err != nil {
			return nil, err
		}
		if c == 0 {
			heapMB = cy.heapMB
		}
		lat := sortedCopy(cy.classify)
		rates = append(rates, cy.trainRate)
		p50s = append(p50s, quantile(lat, 0.5))
		p95s = append(p95s, quantile(lat, tailQ))
		classifyRates = append(classifyRates, float64(len(lat))/cy.busy.Seconds())
		n += len(lat)
	}
	rep.tally(&t)
	rep.note("cycles %d over %d bundles, knowledge-base nodes %d (fold %d)", c, len(ds.corpus.Bundles), ref.kbs[ds.fold].NodeCount(), ds.fold)
	rep.note("per-cycle classify p50s %.4g ms, p95s %.4g ms (%d bundles a cycle, %d in all)", p50s, p95s, len(ds.held), n)
	// Each cycle is one sample; the medians over cycles keep a stall of the
	// machine in one cycle from moving them.
	rep.metric("recommend_p50_ms", median(p50s), "ms")
	rep.metric("capacity_rps", median(classifyRates), "1/s")
	rep.metric("train_bundles_per_s", median(rates), "1/s")
	rep.metric("acc_at_1", ref.acc.at1(), "ratio")
	rep.metric("acc_at_10", ref.acc.at10(), "ratio")
	rep.metric("setup_s", median(setups), "s")
	rep.metric("heap_mb", heapMB, "MB")
	return rep, nil
}

// runBatchTraced runs one untraced cycle on the seed's fold as the overhead
// baseline, then rebuilds and classifies that fold through the traced kit.
func runBatchTraced(o options) (*report, error) {
	rep := newReport(o)
	ds, err := makeDataset(o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := buildCVRef(ds, batchModel, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	var t tally
	base, err := runBatchCycle(ds, ref, ds.fold, &t, false)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	kit, err := newTracedKit(tr, ds, batchModel)
	if err != nil {
		return nil, err
	}
	mem, err := kit.train(ds.train)
	if err != nil {
		return nil, err
	}
	// The traced rebuild must agree with Toolkit.Train, and its rankings
	// (hence its Accuracy@k) with the reference, exactly.
	t.add(sameKB(base.mem, mem))
	_, held, heldIdx := ds.splitAt(ds.fold)
	clf := kit.classifier(mem)
	var tracedLat []float64
	for i, b := range held {
		req, root := tr.newID(), tr.newID()
		start := time.Now()
		f, ok := kit.features(b, bundle.TestSources(), root, req)
		if !ok {
			t.add(fmt.Errorf("traced classify %s failed", b.RefNo))
			continue
		}
		rid := tr.newID()
		kit.cur.parent, kit.cur.req = rid, req
		rs := time.Now()
		list := clf.Recommend(b.PartID, f)
		end := time.Now()
		tr.add(rid, root, req, "core.recommend", rs, end)
		tr.add(root, 0, req, "bundle.classify", start, end)
		tracedLat = append(tracedLat, ms(end.Sub(start)))
		t.add(checkList(list, ref.lists[heldIdx[i]]))
	}
	rep.tally(&t)

	spans := tr.snapshot()
	st := selfTimes(spans)
	rep.buildLayers(st, kit, mem.NodeCount())
	rep.classifyLayers(st, &kit.store)
	rep.servingLayers(nil)
	rep.metric("gen.late_ms", 0, "ms")
	rep.overhead(sortedCopy(base.classify), sortedCopy(tracedLat), len(spans), tr.dropped)
	return rep, writeTrace(o, tr)
}
