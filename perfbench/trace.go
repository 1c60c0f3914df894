package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/kb"
	"repro/internal/pipeline"
)

// Tracing for the traced run. Spans are recorded only at the boundaries of
// the program's public calls, by decorators that wrap what the benchmark
// hands to the program: the kb.Store given to the shard router and the
// classifier, the engines given to pipeline.New, and the http.Handler the
// QUEST server exposes. Nothing inside the program is instrumented.

// spanRec is one recorded span. Times are nanoseconds since the tracer's
// epoch; Parent is 0 for a root and Req groups the spans of one request
// or one bundle.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans beyond it are counted
// as dropped, never silently lost.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	on      atomic.Bool // decorators record only while on
	epoch   time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []spanRec
	dropped int
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

// active reports whether decorators should record.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newID hands out a span (or request) identifier; 0 on a nil tracer.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span.
func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	if !t.active() {
		return
	}
	s := spanRec{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// layerTime is the aggregate self time of one span name.
type layerTime struct {
	count int
	self  time.Duration
}

// perOpMs is the mean self time per span in milliseconds (0 when none ran).
func (l layerTime) perOpMs() float64 {
	if l.count == 0 {
		return 0
	}
	return ms(l.self) / float64(l.count)
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its direct children cover (overlapping
// children are counted once).
func selfTimes(spans []spanRec) map[string]layerTime {
	children := map[uint64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		lt := out[s.Name]
		lt.count++
		lt.self += time.Duration(self)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// --- kb.Store decorator ----------------------------------------------------

// storeStats counts what the candidate step did.
type storeStats struct {
	calls, fullScans, candidates, kept atomic.Int64
}

// timedStore wraps a kb.Store, timing Candidates and counting the
// candidate sets it returns. parentOf attributes a call to the request
// (or bundle) span that caused it; it may return zeros.
type timedStore struct {
	kb.Store
	tr       *tracer
	stats    *storeStats
	cutoff   int
	parentOf func(partID string, features []string) (parent, req uint64)
}

// Candidates implements kb.Store.
func (s *timedStore) Candidates(partID string, features []string) []*kb.Node {
	if !s.tr.active() {
		return s.Store.Candidates(partID, features)
	}
	start := time.Now()
	out := s.Store.Candidates(partID, features)
	end := time.Now()
	parent, req := s.parentOf(partID, features)
	s.tr.add(s.tr.newID(), parent, req, "kb.candidates", start, end)
	s.stats.calls.Add(1)
	s.stats.candidates.Add(int64(len(out)))
	s.stats.kept.Add(int64(min(len(out), s.cutoff)))
	if len(out) == s.Store.NodeCount() {
		s.stats.fullScans.Add(1)
	}
	return out
}

// --- pipeline engine decorator ---------------------------------------------

// spanCursor is the current parent for single-goroutine callers (the
// build and classify loops): the caller sets it before each public call.
type spanCursor struct {
	parent, req uint64
}

// timedEngine wraps a pipeline engine, keeping its name so the pipeline
// treats it exactly like the engine it wraps.
type timedEngine struct {
	pipeline.Engine
	span string
	tr   *tracer
	cur  *spanCursor
	// count, when set, is called after a successful Process to tally the
	// annotations the engine produced.
	count func(c *cas.CAS)
}

// Process implements pipeline.Engine.
func (e *timedEngine) Process(c *cas.CAS) error {
	start := time.Now()
	err := e.Engine.Process(c)
	e.tr.add(e.tr.newID(), e.cur.parent, e.cur.req, e.span, start, time.Now())
	if err == nil && e.count != nil {
		e.count(c)
	}
	return err
}

// --- http.Handler decorator ------------------------------------------------

// routeOf names the QUEST API route a request path belongs to.
func routeOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/api/recommend":
		return "recommend"
	case strings.HasSuffix(r.URL.Path, "/assign"):
		return "assign"
	case strings.HasPrefix(r.URL.Path, "/api/bundle/"):
		return "bundle"
	}
	return "other"
}

// reqHeader carries the benchmark's request id from the client to the
// handler decorator, so handler and candidate spans share it.
const reqHeader = "X-Bench-Req"

// timedHandler wraps the QUEST server, recording one root span per request
// named after its route.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	keys *inflight
}

// ServeHTTP implements http.Handler.
func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.active() {
		h.next.ServeHTTP(w, r)
		return
	}
	var req uint64
	fmt.Sscan(r.Header.Get(reqHeader), &req)
	id := h.tr.newID()
	if req != 0 {
		h.keys.bindSpan(req, id)
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.add(id, 0, req, "quest."+routeOf(r), start, time.Now())
}

// inflight maps the query key of each in-flight recommend request to its
// request id and handler span, so a Candidates call running on a shard
// worker can name the request that caused it.
type inflight struct {
	mu     sync.Mutex
	byKey  map[string]uint64 // query key -> request id
	spanOf map[uint64]uint64 // request id -> handler span id
}

func newInflight() *inflight {
	return &inflight{byKey: map[string]uint64{}, spanOf: map[uint64]uint64{}}
}

// queryKey identifies a query by part and features.
func queryKey(partID string, features []string) string {
	return partID + "|" + strings.Join(features, ",")
}

// open registers a request before it is sent; close forgets it.
func (f *inflight) open(req uint64, key string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.byKey[key] = req
	f.mu.Unlock()
}

func (f *inflight) close(req uint64, key string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.byKey[key] == req {
		delete(f.byKey, key)
	}
	delete(f.spanOf, req)
	f.mu.Unlock()
}

func (f *inflight) bindSpan(req, span uint64) {
	f.mu.Lock()
	f.spanOf[req] = span
	f.mu.Unlock()
}

// lookup returns the handler span and request id of a query in flight.
func (f *inflight) lookup(partID string, features []string) (parent, req uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	req = f.byKey[queryKey(partID, features)]
	return f.spanOf[req], req
}
