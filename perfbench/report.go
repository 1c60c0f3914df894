package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// report collects one run's metrics, in the order they are printed.
type report struct {
	workload string
	seed     int64
	traced   bool
	names    []string
	values   map[string]metricValue
	notes    []string
	t        tally
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(o options) *report {
	return &report{workload: o.workload, seed: o.seed, traced: o.trace, values: map[string]metricValue{}}
}

// metric records one metric; NaN and infinities are reported as -1 so the
// JSON stays valid, and the run is marked incorrect.
func (r *report) metric(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("metric %s is not a number", name)
		r.t.add(fmt.Errorf("metric %s not measured", name))
		v = -1
	}
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

// note adds a human-readable line to the output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally folds an operation tally into the report.
func (r *report) tally(t *tally) {
	r.t.attempted += t.attempted
	r.t.failed += t.failed
	for _, f := range t.first {
		r.note("FAILED: %s", f)
	}
}

// latency notes a sample's median and highest supported percentile with
// the sample count.
func (r *report) latency(name string, sorted []float64) {
	q := supportedTail(len(sorted))
	if q == 0 {
		r.note("%s latency: %d samples, too few for a percentile", name, len(sorted))
		return
	}
	if q == 0.5 {
		r.note("%s latency: p50 %.4f ms (n=%d, %d beyond)", name, quantile(sorted, q), len(sorted), beyond(len(sorted), q))
		return
	}
	r.note("%s latency: p50 %.4f ms, p%g %.4f ms (n=%d, %d beyond)",
		name, quantile(sorted, 0.5), q*100, quantile(sorted, q), len(sorted), beyond(len(sorted), q))
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the notes, one line per metric, and the JSON result last.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		r.workload, r.seed, r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	ratio := float64(r.t.failed) / float64(max(r.t.attempted, 1))
	fmt.Fprintf(w, "fail_ratio %.6g (%d of %d operations)\n", ratio, r.t.failed, r.t.attempted)
	for _, n := range r.names {
		v := r.values[n]
		fmt.Fprintf(w, "%s %.6g %s\n", n, v.Value, v.Unit)
	}
	line, err := json.Marshal(result{
		Correct: r.t.failed == 0 && r.t.attempted > 0, Attempted: max(r.t.attempted, 1),
		Failed: r.t.failed, Metrics: r.values,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// --- per-layer metrics ---------------------------------------------------------

// buildLayers reports the knowledge-base build path: the engines, the
// pipeline's own time around them, extraction and insertion, per bundle.
func (r *report) buildLayers(st map[string]layerTime, kit *tracedKit, nodes int) {
	docs := float64(max(kit.stats.docs, 1))
	r.metric("textproc.tokenize_ms", st["textproc.tokenize"].perOpMs(), "ms")
	r.metric("textproc.langdetect_ms", st["textproc.langdetect"].perOpMs(), "ms")
	r.metric("textproc.tokens_per_bundle", float64(kit.stats.tokens)/docs, "count")
	r.metric("annotate.annotate_ms", st["annotate.annotate"].perOpMs(), "ms")
	r.metric("annotate.concepts_per_bundle", float64(kit.stats.concepts)/docs, "count")
	r.metric("pipeline.self_ms", st["pipeline.process"].perOpMs(), "ms")
	r.metric("pipeline.failed_docs", float64(kit.stats.failed), "count")
	r.metric("kb.extract_ms", st["kb.extract"].perOpMs(), "ms")
	r.metric("kb.add_bundle_ms", st["kb.add_bundle"].perOpMs(), "ms")
	r.metric("kb.nodes", float64(nodes), "count")
}

// classifyLayers reports the candidate step and the classifier's own
// scoring and ranking, per ranking, from the classify spans.
func (r *report) classifyLayers(st map[string]layerTime, ss *storeStats) {
	r.storeLayers(st["kb.candidates"].perOpMs(), ss)
	r.metric("core.score_rank_ms", st["core.recommend"].perOpMs(), "ms")
}

// storeLayers reports what the candidate step did.
func (r *report) storeLayers(candMs float64, ss *storeStats) {
	calls := float64(max(ss.calls.Load(), 1))
	r.metric("kb.candidates_ms", candMs, "ms")
	r.metric("kb.candidates_per_query", float64(ss.candidates.Load())/calls, "count")
	r.metric("kb.fullscan_ratio", float64(ss.fullScans.Load())/calls, "ratio")
	r.metric("core.useful_ratio", float64(ss.kept.Load())/float64(max(ss.candidates.Load(), 1)), "ratio")
}

// servingLayers reports the serving tier; nil (the batch workload, which
// never serves) reports every serving layer as zero work.
func (r *report) servingLayers(sl *servingLayerTimes) {
	if sl == nil {
		sl = &servingLayerTimes{}
	}
	r.metric("shard.query_ms", sl.shardQuery, "ms")
	r.metric("shard.merge_ms", sl.merge, "ms")
	r.metric("shard.scatter_ratio", sl.scatter, "ratio")
	r.metric("shard.hedge_ratio", sl.hedge, "ratio")
	r.metric("quest.recommend_ms", sl.handler["recommend"], "ms")
	r.metric("quest.bundle_ms", sl.handler["bundle"], "ms")
	r.metric("quest.assign_ms", sl.handler["assign"], "ms")
	r.metric("quest.self_ms", sl.questSelf, "ms")
	r.metric("reldb.fsyncs_per_assign", sl.fsyncsPerAssign, "count")
	r.metric("reldb.fsync_ms", sl.fsyncMs, "ms")
	r.metric("reldb.wal_bytes_per_assign", sl.walBytesPerAssign, "bytes")
	r.metric("repl.apply_lag_ms", sl.applyLagMs, "ms")
	r.metric("repl.applied_bytes_per_assign", sl.appliedBytesPerAssign, "bytes")
}

// overhead reports the traced run's cost: the traced minus the untraced
// latency of the workload's recommendation operation, and the span count.
func (r *report) overhead(base, traced []float64, spans, dropped int) {
	r.note("untraced / traced recommend p50 %.4f / %.4f ms, p95 %.4f / %.4f ms",
		quantile(base, 0.5), quantile(traced, 0.5), quantile(base, tailQ), quantile(traced, tailQ))
	r.metric("trace.overhead_p50_ms", quantile(traced, 0.5)-quantile(base, 0.5), "ms")
	r.metric("trace.overhead_p95_ms", quantile(traced, tailQ)-quantile(base, tailQ), "ms")
	r.metric("trace.spans", float64(spans), "count")
	if dropped > 0 {
		r.note("trace: %d spans beyond the buffer were dropped", dropped)
	}
}

// writeTrace stores the run's spans under the build directory.
func writeTrace(o options, tr *tracer) error {
	dir := filepath.Join(o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
}

// liveHeapMB collects garbage and reports the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
