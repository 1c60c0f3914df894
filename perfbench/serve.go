package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/reqlog"
	"repro/internal/qatk"
	"repro/internal/quest"
	"repro/internal/reldb"
	"repro/internal/repl"
	"repro/internal/shard"
)

// servingSpec describes one open-loop serving workload.
type servingSpec struct {
	name  string
	model kb.FeatureModel
	// rate is the fixed offered rate (requests/s) recommend_p50_ms is
	// measured at. maxRate bounds the closed loop's
	// throughput the capacity phase plans requests for; a tier faster than
	// that ends the phase early, with its throughput still measured.
	rate    float64
	maxRate float64
	mix     mix
	// zipf > 1 draws recommend queries from the held-out pool with that
	// Zipf exponent; 0 sends every bundle's query once, in seeded order.
	zipf float64
	// durable serves from a file-backed reldb at questd's default flush
	// policy (always) with one WAL-shipped replica tailing it.
	durable bool
}

var serveBow = servingSpec{
	name: "serve-bow", model: kb.BagOfWords,
	rate: 250, maxRate: 5000,
	mix: mix{recommend: 49, scatter: 1},
}

var expertSession = servingSpec{
	name: "expert-session", model: kb.BagOfConcepts,
	rate: 600, maxRate: 15000,
	mix: mix{recommend: 35, bundle: 10, assign: 5}, zipf: 1.1, durable: true,
}

// mix is one block of the request stream: how many requests of each type
// every consecutive block holds, in a seeded order within the block. A
// fixed block keeps each share exact over any stretch of the run, so
// expensive requests cannot cluster by chance.
type mix struct {
	recommend int
	// scatter recommend queries carry an unknown part ID, which no shard
	// owns, so every shard ranks its whole partition.
	scatter int
	bundle  int
	assign  int
}

// shards is the shard count of both serving workloads.
const shards = 2

// unknownPart is owned by no shard: queries carrying it scatter.
const unknownPart = "UNKNOWN-PART"

// expertUser is the session the assign requests run under.
const expertUser = "expert"

// server is one in-process QUEST server over loopback with its tier.
type server struct {
	mem     *kb.Memory // the trained knowledge base: the reference
	db      *reldb.DB
	dir     string
	reg     *obs.Registry
	reqs    *reqlog.Log
	router  *shard.Router
	replica *repl.Replica
	ts      *httptest.Server
	keys    *inflight
	store   storeStats
}

// close stops the server and everything under it, replica included.
func (s *server) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.replica != nil {
		s.replica.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// pendingCopy is a held-out bundle as QUEST stores it before an expert
// decides: no error code, and neither of the reports that only exist
// afterwards.
func pendingCopy(b *bundle.Bundle) *bundle.Bundle {
	p := *b
	p.ErrorCode = ""
	p.Reports = nil
	for _, r := range b.Reports {
		if r.Source != bundle.SourceFinalOEM && r.Source != bundle.SourceErrorDesc {
			p.Reports = append(p.Reports, r)
		}
	}
	return &p
}

// startServer builds a workload's serving tier from the dataset: train the
// knowledge base, persist it (durable workloads: bundles, knowledge base,
// suggestions and users into a file-backed reldb, reopened at sync=always
// like questd), start the replica, partition the store across the shard
// router at questd's default hedging, and serve it over loopback. held is
// the held-out query pool whose suggestions are persisted. With tr set,
// the knowledge base is built by the traced kit and the stores and
// handler are wrapped.
func startServer(work string, ds *dataset, spec servingSpec, held []query, tr *tracer) (*server, float64, *tracedKit, error) {
	s := &server{keys: newInflight()}
	tk := ds.toolkit(spec.model)
	start := time.Now()
	mem, err := tk.Train(ds.train)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("train: %w", err)
	}
	trainRate := float64(len(ds.train)) / time.Since(start).Seconds()
	var kit *tracedKit
	if tr != nil {
		if kit, err = newTracedKit(tr, ds, spec.model); err != nil {
			return nil, 0, nil, err
		}
		traced, err := kit.train(ds.train)
		if err != nil {
			return nil, 0, nil, err
		}
		if err := sameKB(mem, traced); err != nil {
			return nil, 0, nil, fmt.Errorf("traced build disagrees with Toolkit.Train: %w", err)
		}
		mem = traced
	}
	s.mem = mem
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	logger := obs.NewLogger(os.Stderr, obs.LevelWarn)
	s.reg = obs.NewRegistry()
	var store kb.Store = mem
	if spec.durable {
		s.dir, err = os.MkdirTemp(work, "db-")
		if err != nil {
			return nil, 0, nil, err
		}
		if err := bulkLoad(s.dir, ds, tk, mem, held); err != nil {
			return nil, 0, nil, err
		}
		if s.db, err = reldb.OpenWith(s.dir, reldb.Options{Sync: reldb.SyncAlways}); err != nil {
			return nil, 0, nil, err
		}
		s.db.Instrument(logger, s.reg)
		dbs, err := kb.OpenDB(s.db)
		if err != nil {
			return nil, 0, nil, err
		}
		store = dbs
	} else {
		if s.db, err = reldb.Open(""); err != nil {
			return nil, 0, nil, err
		}
		if err := createTables(s.db); err != nil {
			return nil, 0, nil, err
		}
	}

	var replicas []shard.ReplicaTarget
	if spec.durable {
		primary, err := repl.NewPrimary(s.db)
		if err != nil {
			return nil, 0, nil, err
		}
		s.replica, err = repl.New(repl.Config{ID: "r0", Link: primary, Metrics: s.reg, Logger: logger})
		if err != nil {
			return nil, 0, nil, err
		}
		s.replica.Start()
		deadline := time.Now().Add(60 * time.Second)
		for !(s.replica.Ready() && s.replica.ApplyLag() < shard.DefaultMaxApplyLag) {
			if time.Now().After(deadline) {
				return nil, 0, nil, fmt.Errorf("replica never caught up")
			}
			time.Sleep(time.Millisecond)
		}
		replicas = append(replicas, s.replica)
	}

	parts := shard.PartitionStores(store, shards)
	if tr != nil {
		for i, p := range parts {
			parts[i] = &timedStore{Store: p, tr: tr, stats: &s.store, cutoff: core.DefaultNodeCutoff, parentOf: s.keys.lookup}
		}
	}
	s.router, err = shard.New(shard.Config{
		Stores:     parts,
		HedgeAfter: shard.DefaultHedgeAfter,
		Replicas:   replicas,
		Metrics:    s.reg,
		Logger:     logger,
	})
	if err != nil {
		return nil, 0, nil, err
	}
	rc := reqlog.Config{Registry: s.reg}
	if tr != nil {
		// Every event of the traced phase is kept for the shard split.
		rc.SampleAll, rc.Capacity = true, 1<<16
	}
	s.reqs = reqlog.New(rc)
	app, err := quest.NewServer(quest.Config{
		DB: s.db, Shards: s.router, Metrics: s.reg, Requests: s.reqs, Logger: logger,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, 0, nil, err
	}
	var h http.Handler = app
	if tr != nil {
		h = &timedHandler{next: app, tr: tr, keys: s.keys}
	}
	s.ts = httptest.NewServer(h)
	ok = true
	return s, trainRate, kit, nil
}

// createTables creates the QUEST schema questd serves from.
func createTables(db *reldb.DB) error {
	for _, create := range []func(*reldb.DB) error{
		bundle.CreateTables, core.CreateResultsTable,
		quest.CreateUserTables, quest.CreateCatalogTables, quest.CreateAuditTables,
	} {
		if err := create(db); err != nil {
			return err
		}
	}
	if _, err := quest.AddUser(db, expertUser, quest.RoleExpert); err != nil {
		return err
	}
	return nil
}

// bulkLoad writes what datagen, `qatk train` and `qatk classify` leave
// behind for questd: every bundle (held-out ones pending), the knowledge
// base, and the suggestions of the held-out pool. It loads at sync=never,
// as a regenerable bulk load may, checkpoints and closes.
func bulkLoad(dir string, ds *dataset, tk *qatk.Toolkit, mem *kb.Memory, held []query) error {
	db, err := reldb.OpenWith(dir, reldb.Options{Sync: reldb.SyncNever})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := createTables(db); err != nil {
		return err
	}
	if err := bundle.StoreAll(db, ds.train); err != nil {
		return err
	}
	for _, b := range ds.held {
		if err := bundle.Store(db, pendingCopy(b)); err != nil {
			return err
		}
	}
	if err := tk.PersistKB(db, mem); err != nil {
		return err
	}
	ref := core.New(mem, core.Jaccard{})
	for _, q := range held {
		if err := core.SaveRecommendations(db, q.ref, ref.Recommend(q.part, q.features)); err != nil {
			return err
		}
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	return db.Close()
}

// --- requests ----------------------------------------------------------------

type reqKind uint8

const (
	kindRecommend reqKind = iota
	kindBundle
	kindAssign
)

func (k reqKind) String() string {
	return [...]string{"recommend", "bundle", "assign"}[k]
}

// planned is one scheduled request.
type planned struct {
	kind    reqKind
	q       int  // index into the query pool (recommend) or held pool
	scatter bool // recommend with the unknown part
	drop    int  // recommend: which variant of the query (see query.variant)
	ref     string
	code    string // assign: the code the expert confirms
}

// answer is what a request returned, kept for the reference check.
type answer struct {
	status  int
	codes   []suggestion
	refNo   string
	errCode string
	flagged string // degraded / stale answer
}

// suggestion is one ranked code as the QUEST API serializes it.
type suggestion struct {
	Rank  int     `json:"rank"`
	Code  string  `json:"code"`
	Score float64 `json:"score"`
}

// planner draws the request mix from a seeded source.
type planner struct {
	spec     servingSpec
	rng      *rand.Rand
	zipf     *rand.Zipf
	pool     []query // recommend pool
	held     []query // held-out pool (bundle reads, assigns, Zipf draws)
	order    []int   // serve-bow: the seeded order each query is sent once in
	next     int
	assigned int
	block    []int // the rest of the current mix block, popped from the end
}

func newPlanner(spec servingSpec, seed int64, pool, held []query) *planner {
	p := &planner{spec: spec, rng: rand.New(rand.NewSource(seed)), pool: pool, held: held}
	if spec.zipf > 1 {
		p.zipf = rand.NewZipf(p.rng, spec.zipf, 1, uint64(len(held)-1))
		// Which held-out query is most popular is itself seeded.
		p.order = p.rng.Perm(len(held))
	} else {
		p.order = p.rng.Perm(len(pool))
	}
	return p
}

// plan draws n requests. Without scatter, the mix's scatter slots send
// owned recommends instead.
func (p *planner) plan(n int, scatter bool) []planned {
	out := make([]planned, n)
	for i := range out {
		if len(p.block) == 0 {
			p.refill()
		}
		slot := p.block[len(p.block)-1]
		p.block = p.block[:len(p.block)-1]
		switch slot {
		case slotRecommend, slotScatter:
			r := planned{kind: kindRecommend, scatter: scatter && slot == slotScatter}
			if p.zipf != nil {
				r.q = p.order[p.zipf.Uint64()]
			} else {
				// Each pass over the pool sends new variants, so no query
				// repeats however long the run.
				r.q, r.drop = p.order[p.next%len(p.order)], p.next/len(p.order)
				p.next++
			}
			out[i] = r
		case slotBundle:
			// Bundle reads follow the same popularity as recommend queries;
			// workloads with bundle reads recommend from the held-out pool.
			q := p.order[p.zipf.Uint64()]
			out[i] = planned{kind: kindBundle, q: q, ref: p.held[q].ref}
		default:
			// Assigns walk the held-out pool in order, so no two are in
			// flight for one bundle and each read-back is unambiguous.
			h := p.held[p.assigned%len(p.held)]
			p.assigned++
			out[i] = planned{kind: kindAssign, ref: h.ref, code: h.code}
		}
	}
	return out
}

// Slots of a mix block.
const (
	slotRecommend = iota
	slotScatter
	slotBundle
	slotAssign
)

// refill lays out the next block in a seeded order.
func (p *planner) refill() {
	m := p.spec.mix
	for slot, count := range []int{m.recommend, m.scatter, m.bundle, m.assign} {
		for j := 0; j < count; j++ {
			p.block = append(p.block, slot)
		}
	}
	p.rng.Shuffle(len(p.block), func(i, j int) { p.block[i], p.block[j] = p.block[j], p.block[i] })
}

// client sends requests over one connection per sender.
type client struct {
	base    string
	conns   []*http.Client
	tracing bool
	keys    *inflight
	reqIDs  func() uint64
}

func newClient(base string, senders int) *client {
	c := &client{base: base}
	for i := 0; i < senders; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// do sends one planned request on sender w and decodes the answer.
func (c *client) do(w int, r planned, pool, held []query) (answer, error) {
	var req *http.Request
	var err error
	var key string
	switch r.kind {
	case kindRecommend:
		q := pool[r.q]
		part, features := q.part, q.variant(r.drop)
		if r.scatter {
			part = unknownPart
		}
		key = queryKey(part, features)
		u := c.base + "/api/recommend?part=" + url.QueryEscape(part) + "&features=" + url.QueryEscape(strings.Join(features, ","))
		req, err = http.NewRequest(http.MethodGet, u, nil)
	case kindBundle:
		req, err = http.NewRequest(http.MethodGet, c.base+"/api/bundle/"+url.PathEscape(r.ref), nil)
	case kindAssign:
		body, _ := json.Marshal(map[string]string{"code": r.code})
		req, err = http.NewRequest(http.MethodPost, c.base+"/api/bundle/"+url.PathEscape(r.ref)+"/assign", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			req.AddCookie(&http.Cookie{Name: "quest_user", Value: expertUser})
		}
	}
	if err != nil {
		return answer{}, err
	}
	if c.tracing {
		id := c.reqIDs()
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		if key != "" {
			c.keys.open(id, key)
			defer c.keys.close(id, key)
		}
	}
	resp, err := c.conns[w].Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode}
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return a, fmt.Errorf("%s: status %d", r.kind, resp.StatusCode)
	}
	switch r.kind {
	case kindRecommend:
		var env struct {
			Codes    []suggestion `json:"codes"`
			Degraded bool         `json:"degraded"`
			Stale    bool         `json:"stale"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return a, fmt.Errorf("recommend: %w", err)
		}
		a.codes = env.Codes
		if env.Degraded || env.Stale {
			a.flagged = fmt.Sprintf("degraded=%v stale=%v", env.Degraded, env.Stale)
		}
	default:
		var b struct {
			RefNo       string       `json:"ref_no"`
			ErrorCode   string       `json:"error_code"`
			Suggestions []suggestion `json:"suggestions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			return a, fmt.Errorf("%s: %w", r.kind, err)
		}
		a.refNo, a.errCode, a.codes = b.RefNo, b.ErrorCode, b.Suggestions
	}
	io.Copy(io.Discard, resp.Body)
	if a.flagged != "" {
		return a, fmt.Errorf("recommend answer flagged %s", a.flagged)
	}
	return a, nil
}

// phase is one run of requests, open or closed loop.
type phase struct {
	plan    []planned
	samples []sample
	answers []answer
}

// run drives the plan open loop at rate from the senders (see openLoop).
func (c *client) run(rate float64, plan []planned, pool, held []query, abortLate time.Duration) *phase {
	ph := &phase{plan: plan, answers: make([]answer, len(plan))}
	sch := newSchedule(time.Now().Add(5*time.Millisecond), rate, len(plan))
	ph.samples = openLoop(sch, len(c.conns), abortLate, func(w, i int) error {
		a, err := c.do(w, plan[i], pool, held)
		ph.answers[i] = a
		return err
	})
	return ph
}

// runClosed drives the plan closed loop (see closedLoop) for at most d and
// returns the phase with how long its sent requests took.
func (c *client) runClosed(plan []planned, d time.Duration, pool, held []query) (*phase, time.Duration) {
	ph := &phase{plan: plan, answers: make([]answer, len(plan))}
	var took time.Duration
	ph.samples, took = closedLoop(len(plan), len(c.conns), d, func(w, i int) error {
		a, err := c.do(w, plan[i], pool, held)
		ph.answers[i] = a
		return err
	})
	return ph, took
}

// latencies returns the sorted latencies (ms) of the sent requests of one
// kind.
func (ph *phase) latencies(k reqKind) []float64 {
	return ph.filter(func(r planned) bool { return r.kind == k })
}

// recommends returns the sorted latencies (ms) of the sent recommends that
// scattered, or of those a shard owned.
func (ph *phase) recommends(scatter bool) []float64 {
	return ph.filter(func(r planned) bool { return r.kind == kindRecommend && r.scatter == scatter })
}

func (ph *phase) filter(keep func(planned) bool) []float64 {
	var xs []float64
	for i, s := range ph.samples {
		if s.sent && keep(ph.plan[i]) {
			xs = append(xs, ms(s.latency))
		}
	}
	return sortedCopy(xs)
}

// lateness returns the mean send lateness (ms).
func (ph *phase) lateness() float64 {
	var xs []float64
	for _, s := range ph.samples {
		if s.sent {
			xs = append(xs, ms(s.late))
		}
	}
	return mean(xs)
}

// segments splits the phase into k consecutive parts and returns each
// part's owned-recommend p50 and p95 (ms) with its sample count.
func (ph *phase) segments(k int) (p50s, p95s []float64, n []int) {
	size := (len(ph.samples) + k - 1) / k
	for lo := 0; lo < len(ph.samples); lo += size {
		hi := min(lo+size, len(ph.samples))
		part := &phase{plan: ph.plan[lo:hi], samples: ph.samples[lo:hi]}
		lat := part.recommends(false)
		p50s = append(p50s, quantile(lat, 0.5))
		p95s = append(p95s, quantile(lat, tailQ))
		n = append(n, len(lat))
	}
	return p50s, p95s, n
}

// sent counts the requests the phase actually sent.
func (ph *phase) sent() int {
	n := 0
	for _, s := range ph.samples {
		if s.sent {
			n++
		}
	}
	return n
}

// --- reference check ----------------------------------------------------------

// refKey names one recommend query: a pool query, whether it scattered,
// and which variant of its features was sent.
type refKey struct {
	q       int
	scatter bool
	drop    int
}

// references computes the reference ranking (refRanker) of each needed
// query over the served knowledge base, on GOMAXPROCS goroutines.
func references(mem *kb.Memory, pool []query, need map[refKey]bool) map[refKey][]core.ScoredCode {
	keys := make([]refKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	out := make([][]core.ScoredCode, len(keys))
	rr := newRefRanker(mem)
	parallel(len(keys), runtime.GOMAXPROCS(0), func() (func(i int) error, error) {
		return func(i int) error {
			k := keys[i]
			part := pool[k.q].part
			if k.scatter {
				part = unknownPart
			}
			out[i] = rr.rank(part, pool[k.q].variant(k.drop))
			return nil
		}, nil
	})
	m := make(map[refKey][]core.ScoredCode, len(keys))
	for i, k := range keys {
		m[k] = out[i]
	}
	return m
}

// tally counts operations and failures, keeping the first few failure
// descriptions for the log.
type tally struct {
	attempted, failed int
	first             []string
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 5 {
			t.first = append(t.first, err.Error())
		}
	}
}

// verify checks every answer of the phases against the reference: each
// recommend ranking against the reference ranking, each bundle read's
// suggestions against what was persisted for it, and each assign's echo.
// Sends that errored count as failed; unsent requests count nowhere.
func verify(t *tally, phases []*phase, refs map[refKey][]core.ScoredCode, pool, held []query) {
	for _, ph := range phases {
		for i, s := range ph.samples {
			if !s.sent {
				continue
			}
			if s.err != nil {
				t.add(s.err)
				continue
			}
			r, a := ph.plan[i], ph.answers[i]
			var err error
			switch r.kind {
			case kindRecommend:
				err = checkRanking(a.codes, refs[refKey{r.q, r.scatter, r.drop}], quest.SuggestionLimit)
				if err != nil {
					err = fmt.Errorf("recommend %s scatter=%v: %w", pool[r.q].ref, r.scatter, err)
				}
			case kindBundle:
				err = checkRanking(a.codes, refs[refKey{q: r.q}], quest.SuggestionLimit)
				if err == nil && a.refNo != r.ref {
					err = fmt.Errorf("bundle %s answered as %s", r.ref, a.refNo)
				}
				if err != nil {
					err = fmt.Errorf("bundle %s: %w", held[r.q].ref, err)
				}
			case kindAssign:
				if a.refNo != r.ref || a.errCode != r.code {
					err = fmt.Errorf("assign %s=%s echoed %s=%s", r.ref, r.code, a.refNo, a.errCode)
				}
			}
			t.add(err)
		}
	}
}

// readBack reads every assigned bundle back through GET /api/bundle/{ref}
// and from the replica's copy of the database once it has caught up, and
// fails each assign whose final code is not there.
func readBack(t *tally, s *server, c *client, phases []*phase) {
	last := map[string]string{}
	for _, ph := range phases {
		for i, smp := range ph.samples {
			if r := ph.plan[i]; smp.sent && smp.err == nil && r.kind == kindAssign {
				last[r.ref] = r.code
			}
		}
	}
	if len(last) == 0 {
		return
	}
	for ref, code := range last {
		a, err := c.do(0, planned{kind: kindBundle, ref: ref}, nil, nil)
		if err == nil && a.errCode != code {
			err = fmt.Errorf("read-back %s: code %q, assigned %q", ref, a.errCode, code)
		}
		t.add(err)
	}
	if s.replica == nil {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, ref := range sortedKeys(last) {
		for {
			b, err := bundle.Load(s.replica.DB(), ref)
			if err == nil && b.ErrorCode == last[ref] {
				t.add(nil)
				break
			}
			if time.Now().After(deadline) {
				t.add(fmt.Errorf("replica never applied assign of %s", ref))
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
