package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/reqlog"
	"repro/internal/reldb"
	"repro/internal/repl"
	"repro/internal/shard"
)

const (
	// warmupRequests run at the fixed rate before anything is timed, so
	// connections are open and lazy set-up has finished.
	warmupRequests = 200
	// fixedShare of the measured time goes to the fixed-rate phase; the
	// closed-loop capacity phase gets the rest.
	fixedShare = 0.7
	// The fixed-rate phase is cut into up to maxSegments consecutive parts
	// of at least minSegment owned recommends (30 beyond the p95); each
	// gets a p50 and a p95, and recommend_p50_ms is the median of the
	// parts' p50s, so stalls of the machine in two parts cannot move it.
	maxSegments = 5
	minSegment  = 600
	// capacityWindow is the window the capacity phase's throughput is
	// taken over.
	capacityWindow = time.Second
	// abortLate ends a warm-up whose sender has fallen this far behind.
	abortLate = time.Second
)

// servingInputs extracts the query pools: held holds the held-out
// bundles' queries (scored for Accuracy@k); pool is what recommend draws
// from. A workload that sends each query once also queries the training
// bundles' test-phase views, so no query repeats within a run.
func servingInputs(ds *dataset, spec servingSpec) (pool, held []query, err error) {
	tk := ds.toolkit(spec.model)
	workers := runtime.GOMAXPROCS(0)
	if held, err = queries(tk, ds.held, workers); err != nil {
		return nil, nil, err
	}
	if spec.zipf > 1 {
		return held, held, nil
	}
	train, err := queries(tk, ds.train, workers)
	if err != nil {
		return nil, nil, err
	}
	return append(append([]query(nil), held...), train...), held, nil
}

// checkPhases verifies every answer of the phases against the reference
// and reads the assigns back, returning the tally and Accuracy@k of the
// served model over the held-out pool.
func checkPhases(srv *server, c *client, phases []*phase, pool, held []query) (*tally, accuracy) {
	need := map[refKey]bool{}
	for i := range held {
		need[refKey{q: i}] = true // held queries lead the pool
	}
	for _, ph := range phases {
		for i, r := range ph.plan {
			if ph.samples[i].sent && r.kind == kindRecommend {
				need[refKey{r.q, r.scatter, r.drop}] = true
			}
		}
	}
	refs := references(srv.mem, pool, need)
	var acc accuracy
	for i, q := range held {
		acc.add(refs[refKey{q: i}], q.code)
	}
	t := &tally{}
	verify(t, phases, refs, pool, held)
	readBack(t, srv, c, phases)
	return t, acc
}

// runServing runs an untraced serving workload: set up three times (the
// last server stays), warm up, measure the fixed-rate phase, then the
// closed-loop capacity phase, then check every answer.
func runServing(o options, spec servingSpec) (*report, error) {
	rep := newReport(o)
	var setups, trainRates []float64
	var heapMB float64
	var srv *server
	var ds *dataset
	var pool, held []query
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.close()
			srv = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if ds, err = makeDataset(o.seed); err != nil {
			return nil, err
		}
		gen := time.Since(start)
		if pool == nil {
			// Query extraction builds the generator's inputs, not the
			// program's state: it is not part of set-up time.
			if pool, held, err = servingInputs(ds, spec); err != nil {
				return nil, err
			}
		}
		// The program's heap is what serving adds to the live heap: the
		// knowledge base, the database, the tier. The corpus it reads and
		// the generator's query pools are the benchmark's.
		before := liveHeapMB()
		start = time.Now()
		s, rate, _, err := startServer(o.work, ds, spec, held, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (gen + time.Since(start)).Seconds())
		trainRates = append(trainRates, rate)
		heapMB = liveHeapMB() - before
		srv = s
	}
	defer srv.close()

	c := newClient(srv.ts.URL, runtime.NumCPU())
	defer c.close()
	pl := newPlanner(spec, o.seed, pool, held)
	// Set-up garbage is collected before the warm-up; from there on the
	// collector runs as the traffic makes it, in every phase alike.
	runtime.GC()
	// The fixed-rate phase sends no scatter queries: one ranks every node
	// on both processors for as long as ten owned queries take, so the
	// owned queries queued behind the few that scatter would set the p95.
	// The capacity phase sends the whole mix, so their cost shows there.
	warm := c.run(spec.rate, pl.plan(warmupRequests, false), pool, held, abortLate)
	fixed := c.run(spec.rate, pl.plan(int(spec.rate*o.duration.Seconds()*fixedShare), false), pool, held, 0)
	// Capacity is the closed-loop throughput of the nproc senders: the
	// highest rate an open-loop generator of that many senders can hold
	// without a growing backlog, measured directly. It is the median of
	// the phase's one-second windows, so a stall of the machine in one or
	// two of them cannot move it.
	satTime := time.Duration(float64(o.duration) * (1 - fixedShare))
	sat, satTook := c.runClosed(pl.plan(int(spec.maxRate*satTime.Seconds()), true), satTime, pool, held)
	phases := []*phase{warm, fixed, sat}

	t, acc := checkPhases(srv, c, phases, pool, held)
	if spec.model == kb.BagOfConcepts {
		// Bag-of-concepts classifies fast enough to score all five folds,
		// which keeps Accuracy@k from swinging with one fold's draw; the
		// served knowledge base must be the reference's for its fold.
		ref, err := buildCVRef(ds, spec.model, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		t.add(sameKB(ref.kbs[ds.fold], srv.mem))
		acc = ref.acc
	}
	rep.tally(t)
	rep.latency(fmt.Sprintf("fixed %.0f/s owned recommend", spec.rate), fixed.recommends(false))
	for _, k := range []reqKind{kindBundle, kindAssign} {
		if lat := fixed.latencies(k); len(lat) > 0 {
			rep.latency(fmt.Sprintf("fixed %.0f/s %s", spec.rate, k), lat)
		}
	}
	lateMean := fixed.lateness()
	rep.note("fixed phase: %d requests, generator late %.4f ms on average", fixed.sent(), lateMean)
	rates := windowRates(sat.samples, satTook, capacityWindow)
	rep.note("capacity phase: %d requests closed loop in %.3f s, per-second rates %.0f", sat.sent(), satTook.Seconds(), rates)
	rep.latency("capacity phase owned recommend", sat.recommends(false))
	if lat := sat.recommends(true); len(lat) > 0 {
		rep.latency("capacity phase scatter recommend", lat)
	}
	rep.note("knowledge base %d nodes, query pool %d (%d held out)", srv.mem.NodeCount(), len(pool), len(held))

	p50s, p95s, counts := fixed.segments(max(1, min(maxSegments, len(fixed.recommends(false))/minSegment)))
	for i, n := range counts {
		if beyond(n, tailQ) < minBeyond {
			return nil, fmt.Errorf("fixed-phase segment %d has %d recommend samples, too few for a p95", i, n)
		}
	}
	rep.note("fixed phase segment p50s %.4g ms, p95s %.4g ms (n=%v)", p50s, p95s, counts)
	rep.metric("recommend_p50_ms", median(p50s), "ms")
	rep.metric("capacity_rps", median(rates), "1/s")
	rep.metric("train_bundles_per_s", median(trainRates), "1/s")
	rep.metric("acc_at_1", acc.at1(), "ratio")
	rep.metric("acc_at_10", acc.at10(), "ratio")
	rep.metric("setup_s", median(setups), "s")
	rep.metric("heap_mb", heapMB, "MB")
	return rep, nil
}

// servingLayerTimes are the serving tier's per-layer figures of the
// traced phase.
type servingLayerTimes struct {
	shardQuery, merge, scatter, hedge float64
	handler                           map[string]float64
	questSelf                         float64
	fsyncsPerAssign, fsyncMs          float64
	walBytesPerAssign                 float64
	applyLagMs, appliedBytesPerAssign float64
}

// counters is a reading of the registry families the traced run uses.
type counters struct {
	routerSum float64 // seconds
	routerN   uint64
	requests  uint64
	hedges    uint64
	fsyncSum  float64 // seconds
	fsyncN    uint64
	walBytes  uint64
	applied   uint64
	stages    map[string]time.Duration
}

func readCounters(s *server) counters {
	reg := s.reg
	c := counters{stages: map[string]time.Duration{}}
	h := reg.Histogram(shard.MetricShardQueryDurationSeconds, obs.DefBuckets)
	c.routerSum, c.routerN = h.Sum(), h.Count()
	for i := 0; i < shards; i++ {
		l := obs.L("shard", strconv.Itoa(i))
		c.requests += reg.Counter(shard.MetricShardRequestsTotal, l).Value()
		c.hedges += reg.Counter(shard.MetricShardHedgesTotal, l).Value()
	}
	f := reg.Histogram(reldb.MetricFsyncSeconds, obs.DefBuckets)
	c.fsyncSum, c.fsyncN = f.Sum(), f.Count()
	c.walBytes = reg.Counter(reldb.MetricWALSyncedBytesTotal).Value()
	c.applied = reg.Counter(repl.MetricAppliedBytesTotal, obs.L("replica", "r0")).Value()
	for _, st := range s.reqs.StageTotals() {
		c.stages[st.Name] = st.Total
	}
	return c
}

// per divides, reporting zero work as zero.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// runServingTraced sets up once with the traced build and wrapped tier,
// runs half the fixed-rate phase untraced and half traced, and reports the
// per-layer metrics of the traced half with the overhead between them.
func runServingTraced(o options, spec servingSpec) (*report, error) {
	rep := newReport(o)
	ds, err := makeDataset(o.seed)
	if err != nil {
		return nil, err
	}
	pool, held, err := servingInputs(ds, spec)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	srv, _, kit, err := startServer(o.work, ds, spec, held, tr)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	tr.on.Store(false)

	c := newClient(srv.ts.URL, runtime.NumCPU())
	defer c.close()
	c.keys, c.reqIDs = srv.keys, tr.newID
	pl := newPlanner(spec, o.seed, pool, held)
	half := int(spec.rate * o.duration.Seconds() / 2)
	runtime.GC()
	warm := c.run(spec.rate, pl.plan(warmupRequests, true), pool, held, abortLate)
	base := c.run(spec.rate, pl.plan(half, true), pool, held, 0)

	before := readCounters(srv)
	var maxLag time.Duration
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if srv.replica != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					maxLag = max(maxLag, srv.replica.ApplyLag())
				}
			}
		}()
	}
	tracedFrom := time.Now()
	tr.on.Store(true)
	c.tracing = true
	traced := c.run(spec.rate, pl.plan(half, true), pool, held, 0)
	c.tracing = false
	tr.on.Store(false)
	close(stop)
	wg.Wait()
	after := readCounters(srv)

	t, _ := checkPhases(srv, c, []*phase{warm, base, traced}, pool, held)
	rep.tally(t)

	spans := tr.snapshot()
	st := selfTimes(spans)
	sl := &servingLayerTimes{handler: map[string]float64{}}
	handlerN := map[string]int{}
	handlerSum := map[string]time.Duration{}
	for _, s := range spans {
		if len(s.Name) > 6 && s.Name[:6] == "quest." {
			route := s.Name[6:]
			handlerN[route]++
			handlerSum[route] += time.Duration(s.End - s.Start)
		}
	}
	for route, n := range handlerN {
		sl.handler[route] = ms(handlerSum[route]) / float64(n)
	}

	// The router's time per query less the classifier's critical path:
	// one ranking per answering attempt, run in parallel across shards.
	var critical time.Duration
	var recs, scatters int
	for _, ev := range srv.reqs.Snapshot() {
		if ev.Part == "" || ev.Start.Before(tracedFrom) {
			continue
		}
		recs++
		if ev.Scatter {
			scatters++
		}
		var cls time.Duration
		for _, stg := range ev.Stages {
			if stg.Name == reqlog.StageScore.String() || stg.Name == reqlog.StageRank.String() {
				cls += stg.Duration
			}
		}
		critical += cls / time.Duration(max(len(ev.Shards), 1))
	}
	routerMs := (after.routerSum - before.routerSum) * 1000
	routerN := float64(after.routerN - before.routerN)
	stageMs := func(name string) float64 { return ms(after.stages[name] - before.stages[name]) }
	sl.shardQuery = per(routerMs-ms(critical), routerN)
	sl.merge = per(stageMs("merge"), float64(scatters))
	sl.scatter = per(float64(scatters), float64(recs))
	sl.hedge = per(float64(after.hedges-before.hedges), float64(after.requests-before.requests))
	sl.questSelf = per(ms(handlerSum["recommend"])-routerMs, float64(handlerN["recommend"]))

	assigns := 0
	for i, r := range traced.plan {
		if r.kind == kindAssign && traced.samples[i].sent {
			assigns++
		}
	}
	fsyncs := float64(after.fsyncN - before.fsyncN)
	sl.fsyncsPerAssign = per(fsyncs, float64(assigns))
	sl.fsyncMs = per((after.fsyncSum-before.fsyncSum)*1000, fsyncs)
	sl.walBytesPerAssign = per(float64(after.walBytes-before.walBytes), float64(assigns))
	sl.applyLagMs = ms(maxLag)
	sl.appliedBytesPerAssign = per(float64(after.applied-before.applied), float64(assigns))

	cand := st["kb.candidates"]
	rankings := float64(srv.store.calls.Load())
	classifier := stageMs("score") + stageMs("rank")
	rep.buildLayers(st, kit, srv.mem.NodeCount())
	rep.storeLayers(cand.perOpMs(), &srv.store)
	rep.metric("core.score_rank_ms", per(classifier-ms(cand.self), rankings), "ms")
	rep.servingLayers(sl)
	lateMean := traced.lateness()
	rep.metric("gen.late_ms", lateMean, "ms")
	rep.overhead(base.recommends(false), traced.recommends(false), len(spans), tr.dropped)
	return rep, writeTrace(o, tr)
}
