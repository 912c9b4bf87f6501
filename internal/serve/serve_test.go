package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/serve"
)

// newTestServer builds a server with a generated matching dataset for
// the triangle query registered under "tri".
func newTestServer(t *testing.T, cfg serve.Config, n int) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	db, err := serve.Generate(serve.GeneratorSpec{Family: "C3", N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("tri", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery runs one POST /query and decodes the reply.
func postQuery(t *testing.T, url string, req serve.QueryRequest) (*serve.QueryResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /query: status %d: %s", resp.StatusCode, e.Error)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

// triangleTruth computes the ground truth of C3 over the registered
// dataset.
func triangleTruth(t *testing.T, srv *serve.Server) []relation.Tuple {
	t.Helper()
	q, err := query.ParseFamily("C3")
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := srv.Registry().Get("tri")
	if !ok {
		t.Fatal("dataset tri not registered")
	}
	truth, err := core.GroundTruth(q, ds.DB())
	if err != nil {
		t.Fatal(err)
	}
	return truth
}

// TestEndToEndRoundTrip is the e2e acceptance path: register a CSV
// dataset over HTTP, query it, check the answers against GroundTruth,
// and check that the second identical query hits the plan cache and
// the memoized statistics — verified both in the response and in the
// metrics counters exposed by /healthz.
func TestEndToEndRoundTrip(t *testing.T) {
	srv := serve.New(serve.Config{DefaultP: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Register a two-relation join dataset from inline CSV.
	dsReq := serve.DatasetRequest{
		Name: "edges",
		CSV: map[string]string{
			"R": "x,y\n1,2\n2,3\n3,4\n4,2\n",
			"S": "y,z\n2,5\n3,6\n2,7\n9,9\n",
		},
	}
	body, _ := json.Marshal(dsReq)
	resp, err := http.Post(ts.URL+"/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /datasets: status %d", resp.StatusCode)
	}
	var info serve.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Relations) != 2 || info.Relations[0].Tuples != 4 {
		t.Fatalf("unexpected dataset info: %+v", info)
	}

	// Duplicate registration must 409.
	resp, err = http.Post(ts.URL+"/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate dataset: status %d, want 409", resp.StatusCode)
	}

	// Listing shows it.
	resp, err = http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Name != "edges" {
		t.Fatalf("unexpected listing: %+v", list)
	}

	// Ground truth of the join, computed locally.
	q, err := query.Parse("R(x,y),S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db, err := serve.DatabaseFromCSV(dsReq.CSV)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}

	// First query: a cache miss that must still return the truth.
	qr := serve.QueryRequest{Dataset: "edges", Query: "R(x,y),S(y,z)", MaxAnswers: 1000}
	first, _ := postQuery(t, ts.URL, qr)
	if first.PlanCached {
		t.Errorf("first query reported a plan cache hit")
	}
	if first.StatsCached {
		t.Errorf("first query reported memoized statistics")
	}
	if first.AnswerCount != len(truth) || len(first.Answers) != len(truth) {
		t.Fatalf("answers = %d (returned %d), ground truth %d",
			first.AnswerCount, len(first.Answers), len(truth))
	}
	want := map[string]bool{}
	for _, tup := range truth {
		want[fmt.Sprint([]int(tup))] = true
	}
	for _, tup := range first.Answers {
		if !want[fmt.Sprint(tup)] {
			t.Fatalf("answer %v not in ground truth", tup)
		}
	}

	// Second identical query: plan + stats cache hit.
	second, _ := postQuery(t, ts.URL, qr)
	if !second.PlanCached {
		t.Errorf("second identical query missed the plan cache")
	}
	if !second.StatsCached {
		t.Errorf("second identical query re-collected statistics")
	}
	if second.AnswerCount != first.AnswerCount {
		t.Errorf("second query answers %d != first %d", second.AnswerCount, first.AnswerCount)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprint changed across identical queries")
	}
	if h := srv.Metrics().PlanCacheHits.Load(); h != 1 {
		t.Errorf("plan cache hits = %d, want 1", h)
	}
	if m := srv.Metrics().PlanCacheMisses.Load(); m != 1 {
		t.Errorf("plan cache misses = %d, want 1", m)
	}
	if h := srv.Metrics().StatsCacheMisses.Load(); h != 1 {
		t.Errorf("stats cache misses = %d, want 1", h)
	}

	// /healthz exposes the counters in Prometheus text format.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, needle := range []string{
		"mpcserve_queries_served_total 2",
		"mpcserve_plan_cache_hits_total 1",
		"mpcserve_plan_cache_misses_total 1",
		"# TYPE mpcserve_shuffle_bits_total counter",
		"mpcserve_shuffle_round_bits_total{round=\"1\"}",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/healthz missing %q in:\n%s", needle, text)
		}
	}
}

// TestConcurrentQueriesSharedPlan hammers one cached plan with over a
// hundred concurrent in-flight queries (run under -race in CI): every
// response must carry the full triangle ground truth.
func TestConcurrentQueriesSharedPlan(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{DefaultP: 8, MaxConcurrent: 128}, 120)
	truth := triangleTruth(t, srv)

	// Warm the cache so the flood shares one compiled plan.
	warm, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"})
	if warm.AnswerCount != len(truth) {
		t.Fatalf("warm query answers %d, truth %d", warm.AnswerCount, len(truth))
	}

	const clients = 110
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.QueryRequest{
				Dataset: "tri", Family: "C3", Seed: uint64(c%7 + 1), MaxAnswers: -1,
			})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out serve.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			if out.AnswerCount != len(truth) {
				errs <- fmt.Errorf("client %d: %d answers, want %d", c, out.AnswerCount, len(truth))
				return
			}
			if !out.PlanCached {
				errs <- fmt.Errorf("client %d: plan cache miss after warmup", c)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if served := srv.Metrics().QueriesServed.Load(); served != clients+1 {
		t.Errorf("queries served = %d, want %d", served, clients+1)
	}
	if hits := srv.Metrics().PlanCacheHits.Load(); hits != clients {
		t.Errorf("plan cache hits = %d, want %d", hits, clients)
	}
}

// TestCacheEviction checks LRU correctness end to end: with capacity
// 2, a third distinct plan evicts the least recently used one, and the
// evicted query replans correctly on its next appearance.
func TestCacheEviction(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{DefaultP: 8, CacheSize: 2}, 60)
	truth := triangleTruth(t, srv)

	families := []string{"C3", "L2", "L3"}
	counts := map[string]int{}
	for _, f := range families {
		out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: f, MaxAnswers: -1})
		if out.PlanCached {
			t.Errorf("first %s query hit the cache", f)
		}
		counts[f] = out.AnswerCount
	}
	if counts["C3"] != len(truth) {
		t.Fatalf("C3 answers %d, truth %d", counts["C3"], len(truth))
	}
	if srv.PlanCache().Len() != 2 {
		t.Fatalf("cache len = %d, want 2", srv.PlanCache().Len())
	}

	// C3 was least recently used → evicted. Re-running it must miss,
	// replan, and still match its first answer count.
	again, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3", MaxAnswers: -1})
	if again.PlanCached {
		t.Errorf("evicted C3 plan reported a cache hit")
	}
	if again.AnswerCount != counts["C3"] {
		t.Errorf("replanned C3 answers %d, want %d", again.AnswerCount, counts["C3"])
	}
	// L3 stayed resident → hit.
	l3, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "L3", MaxAnswers: -1})
	if !l3.PlanCached {
		t.Errorf("resident L3 plan missed the cache")
	}
	if l3.AnswerCount != counts["L3"] {
		t.Errorf("cached L3 answers %d, want %d", l3.AnswerCount, counts["L3"])
	}
}

// TestQueryValidation exercises the request validation paths.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{DefaultP: 8, MaxP: 64}, 20)
	cases := []struct {
		name string
		req  serve.QueryRequest
		code int
	}{
		{"missing dataset", serve.QueryRequest{Family: "C3"}, http.StatusBadRequest},
		{"unknown dataset", serve.QueryRequest{Dataset: "nope", Family: "C3"}, http.StatusNotFound},
		{"no query", serve.QueryRequest{Dataset: "tri"}, http.StatusBadRequest},
		{"both query and family", serve.QueryRequest{Dataset: "tri", Family: "C3", Query: "R(x,y)"}, http.StatusBadRequest},
		{"negative p", serve.QueryRequest{Dataset: "tri", Family: "C3", P: -3}, http.StatusBadRequest},
		{"p over limit", serve.QueryRequest{Dataset: "tri", Family: "C3", P: 4096}, http.StatusBadRequest},
		{"bad eps", serve.QueryRequest{Dataset: "tri", Family: "C3", Epsilon: "3/2"}, http.StatusBadRequest},
		{"unknown relation", serve.QueryRequest{Dataset: "tri", Query: "Zed(x,y)"}, http.StatusBadRequest},
		{"arity mismatch", serve.QueryRequest{Dataset: "tri", Query: "S1(x,y,z)"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, _ := json.Marshal(c.req)
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Errorf("status %d, want %d", resp.StatusCode, c.code)
			}
		})
	}
}

// TestGateAdmission unit-tests the admission controller: slot limits,
// budget limits, FIFO wakeup, and context cancellation.
func TestGateAdmission(t *testing.T) {
	g := serve.NewGate(2, 100)
	ctx := context.Background()
	if err := g.Acquire(ctx, 40); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx, 40); err != nil {
		t.Fatal(err)
	}
	if g.InFlight() != 2 {
		t.Fatalf("in flight = %d, want 2", g.InFlight())
	}

	// Third acquire exceeds the slot count: must block until a release.
	admitted := make(chan error, 1)
	go func() { admitted <- g.Acquire(ctx, 10) }()
	select {
	case err := <-admitted:
		t.Fatalf("over-slot acquire admitted immediately (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if g.Queued() != 1 {
		t.Fatalf("queued = %d, want 1", g.Queued())
	}
	g.Release(40)
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}

	// Budget: 40 + 10 in use; a 60-cost acquire must wait even though a
	// slot is free... but first fill the slot count back to 1 free.
	over := make(chan error, 1)
	go func() { over <- g.Acquire(ctx, 60) }()
	select {
	case err := <-over:
		t.Fatalf("over-budget acquire admitted immediately (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.Release(10)
	if err := <-over; err != nil {
		t.Fatal(err)
	}

	// An oversized cost clamps to the budget and still runs (alone).
	g.Release(40)
	g.Release(60)
	if err := g.Acquire(ctx, 10_000); err != nil {
		t.Fatalf("oversized acquire: %v", err)
	}
	g.Release(10_000)

	// Context cancellation unblocks a waiter.
	if err := g.Acquire(ctx, 100); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(cctx, 1); err == nil {
		t.Fatal("cancelled acquire succeeded")
	}
	if g.Queued() != 0 {
		t.Fatalf("cancelled waiter still queued")
	}
	g.Release(100)
}

// TestGateCancelledHeadAdmitsFollowers: when the head of the queue is
// cancelled, a cheaper waiter behind it that fits is admitted at once,
// not at the next unrelated Release.
func TestGateCancelledHeadAdmitsFollowers(t *testing.T) {
	g := serve.NewGate(4, 100)
	if err := g.Acquire(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	actx, cancel := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() { aErr <- g.Acquire(actx, 80) }()
	for g.Queued() < 1 {
		runtime.Gosched()
	}
	bErr := make(chan error, 1)
	go func() { bErr <- g.Acquire(context.Background(), 10) }()
	for g.Queued() < 2 {
		runtime.Gosched()
	}
	cancel()
	if err := <-aErr; err == nil {
		t.Fatal("the cancelled acquire succeeded")
	}
	select {
	case err := <-bErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("a 10-tuple waiter is still queued with %d of 100 in use", g.Load())
	}
	if g.InFlight() != 2 || g.Load() != 70 || g.Queued() != 0 {
		t.Fatalf("in flight %d, load %d, queued %d; want 2, 70, 0", g.InFlight(), g.Load(), g.Queued())
	}
	g.Release(10)
	g.Release(60)
}

// TestPlanCacheLRU unit-tests the cache eviction order.
func TestPlanCacheLRU(t *testing.T) {
	c := serve.NewPlanCache(2)
	c.Put("a", nil)
	c.Put("b", nil)
	if _, ok := c.Get("a"); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", nil)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should be resident")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be resident")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Errorf("len/cap = %d/%d, want 2/2", c.Len(), c.Capacity())
	}
}

// TestGateCancelAdmitRace is the regression test for a lost-capacity
// stall: a waiter whose context fires just as a Release admits it must
// hand its slot straight to the next queued waiter. Before the fix,
// that path returned capacity without running the FIFO wake loop, and
// the remaining waiter stalled forever.
func TestGateCancelAdmitRace(t *testing.T) {
	for i := 0; i < 300; i++ {
		g := serve.NewGate(1, 0)
		if err := g.Acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		bctx, bcancel := context.WithCancel(context.Background())
		bErr := make(chan error, 1)
		go func() { bErr <- g.Acquire(bctx, 1) }()
		cErr := make(chan error, 1)
		go func() { cErr <- g.Acquire(context.Background(), 1) }()
		for g.Queued() < 2 {
			runtime.Gosched()
		}
		// Race the cancellation against the release that admits B.
		go bcancel()
		g.Release(1)
		if err := <-bErr; err == nil {
			g.Release(1) // B won its admission; give the slot back
		}
		select {
		case err := <-cErr:
			if err != nil {
				t.Fatal(err)
			}
			g.Release(1)
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: waiter stalled — released capacity was lost", i)
		}
	}
}

// TestDatasetRegistrationStatusCodes distinguishes malformed requests
// (400) from duplicate names (409).
func TestDatasetRegistrationStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{DefaultP: 8}, 20)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/datasets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"name":"","generator":{"family":"C3","n":10}}`); code != http.StatusBadRequest {
		t.Errorf("empty name: status %d, want 400", code)
	}
	if code := post(`{"name":"tri","generator":{"family":"C3","n":10}}`); code != http.StatusConflict {
		t.Errorf("duplicate name: status %d, want 409", code)
	}
	if code := post(`{"name":"ok","generator":{"family":"C3","n":10}}`); code != http.StatusCreated {
		t.Errorf("valid registration: status %d, want 201", code)
	}
}
