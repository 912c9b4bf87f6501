package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/trace"
)

// fixedClock returns a Config.Now frozen at a single instant, so
// token buckets never refill: a tenant with burst B admits exactly B
// requests, deterministically, no matter how they race.
func fixedClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time { return at }
}

func TestTenantTokenBucketRefill(t *testing.T) {
	ten := &Tenant{cfg: TenantConfig{Name: "a", Key: "k", QPS: 2, Burst: 3}}
	at := time.Unix(1000, 0)

	// Burst drains in full, then rejects.
	for i := 0; i < 3; i++ {
		if qe := ten.AdmitRate(at); qe != nil {
			t.Fatalf("burst request %d rejected: %v", i, qe)
		}
	}
	qe := ten.AdmitRate(at)
	if qe == nil {
		t.Fatal("4th request admitted over burst 3")
	}
	if qe.Reason != ReasonRate || qe.Tenant != "a" {
		t.Fatalf("rejection = %+v", qe)
	}
	// Empty bucket at 2 qps: next token in 500ms.
	if qe.RetryAfterMs != 500 {
		t.Fatalf("RetryAfterMs = %d, want 500", qe.RetryAfterMs)
	}

	// 1s at 2 qps refills exactly 2 tokens.
	at = at.Add(time.Second)
	for i := 0; i < 2; i++ {
		if qe := ten.AdmitRate(at); qe != nil {
			t.Fatalf("refilled request %d rejected: %v", i, qe)
		}
	}
	if ten.AdmitRate(at) == nil {
		t.Fatal("3rd request admitted after a 2-token refill")
	}
	if got := ten.RejectedRate.Load(); got != 2 {
		t.Fatalf("RejectedRate = %d, want 2", got)
	}

	// A long idle stretch caps at burst, not qps×elapsed.
	at = at.Add(time.Hour)
	admitted := 0
	for ten.AdmitRate(at) == nil {
		admitted++
	}
	if admitted != 3 {
		t.Fatalf("admitted %d after long idle, want burst 3", admitted)
	}
}

func TestTenantLoadQuota(t *testing.T) {
	ten := &Tenant{cfg: TenantConfig{Name: "a", Key: "k", MaxInFlightLoad: 100}}
	if qe := ten.AdmitLoad(60); qe != nil {
		t.Fatalf("first 60 rejected: %v", qe)
	}
	qe := ten.AdmitLoad(60)
	if qe == nil || qe.Reason != ReasonLoad {
		t.Fatalf("over-quota admit: %+v", qe)
	}
	ten.ReleaseLoad(60)
	if got := ten.InFlightLoad(); got != 0 {
		t.Fatalf("InFlightLoad after release = %d", got)
	}

	// Oversized single query clamps to the quota and runs alone.
	if qe := ten.AdmitLoad(10_000); qe != nil {
		t.Fatalf("oversized query rejected: %v", qe)
	}
	if ten.AdmitLoad(1) == nil {
		t.Fatal("second query admitted alongside a clamped oversized one")
	}
	ten.ReleaseLoad(10_000)
	if got := ten.InFlightLoad(); got != 0 {
		t.Fatalf("InFlightLoad after clamped release = %d", got)
	}
}

func TestTenantBytesQuota(t *testing.T) {
	ten := &Tenant{cfg: TenantConfig{Name: "a", Key: "k", MaxResidentBytes: 1000}}
	if qe := ten.AdmitBytes(800); qe != nil {
		t.Fatalf("first dataset rejected: %v", qe)
	}
	qe := ten.AdmitBytes(300)
	if qe == nil || qe.Reason != ReasonBytes || qe.RetryAfterMs != 0 {
		t.Fatalf("over-quota bytes: %+v", qe)
	}
	ten.ReleaseBytes(800)
	if qe := ten.AdmitBytes(1000); qe != nil {
		t.Fatalf("dataset rejected after free: %v", qe)
	}
}

func TestTenantsValidation(t *testing.T) {
	cases := []struct {
		name string
		cfgs []TenantConfig
	}{
		{"empty", nil},
		{"no name", []TenantConfig{{Key: "k"}}},
		{"no key", []TenantConfig{{Name: "a"}}},
		{"dup name", []TenantConfig{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}},
		{"dup key", []TenantConfig{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewTenants(c.cfgs); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	if _, err := NewTenants([]TenantConfig{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb"}}); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticateHeaders(t *testing.T) {
	ts, err := NewTenants([]TenantConfig{{Name: "a", Key: "secret"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(h, v string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/query", nil)
		if h != "" {
			r.Header.Set(h, v)
		}
		return r
	}
	if ten, err := ts.Authenticate(mk("Authorization", "Bearer secret")); err != nil || ten.Name() != "a" {
		t.Fatalf("bearer auth: %v, %v", ten, err)
	}
	if ten, err := ts.Authenticate(mk("X-API-Key", "secret")); err != nil || ten.Name() != "a" {
		t.Fatalf("x-api-key auth: %v, %v", ten, err)
	}
	for name, r := range map[string]*http.Request{
		"missing":     mk("", ""),
		"wrong key":   mk("X-API-Key", "nope"),
		"non-bearer":  mk("Authorization", "Basic Zm9v"),
		"wrong token": mk("Authorization", "Bearer nope"),
	} {
		if _, err := ts.Authenticate(r); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// TestTenantRaceExact429s hammers a 3-tenant server from ~100
// concurrent goroutines under a frozen clock and asserts the exact
// outcome split: every tenant gets precisely Burst successes and the
// rest 429s, and the per-tenant counters (API and Prometheus) agree
// with the HTTP-observed totals. Run with -race -shuffle=on in CI's
// nightly job.
func TestTenantRaceExact429s(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "alpha", Key: "ka", QPS: 1, Burst: 5},
		{Name: "beta", Key: "kb", QPS: 1, Burst: 10},
		{Name: "gamma", Key: "kc", QPS: 1, Burst: 18},
	}
	requests := map[string]int{"alpha": 40, "beta": 30, "gamma": 30} // 100 total
	srv := New(Config{DefaultP: 4, Tenants: tenants, Now: fixedClock()})
	db, err := Generate(GeneratorSpec{Family: "L2", N: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("d", db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body, _ := json.Marshal(QueryRequest{Dataset: "d", Family: "L2"})

	type outcome struct{ ok, throttled, other int64 }
	results := map[string]*outcome{"alpha": {}, "beta": {}, "gamma": {}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, tc := range tenants {
		for i := 0; i < requests[tc.Name]; i++ {
			wg.Add(1)
			go func(name, key string) {
				defer wg.Done()
				req, _ := http.NewRequest(http.MethodPost, hs.URL+"/query", bytes.NewReader(body))
				req.Header.Set("Authorization", "Bearer "+key)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					results[name].ok++
				case http.StatusTooManyRequests:
					results[name].throttled++
					var qe QuotaError
					if err := json.NewDecoder(resp.Body).Decode(&qe); err != nil {
						t.Errorf("429 body: %v", err)
					} else if qe.Tenant != name || qe.Reason != ReasonRate || qe.RetryAfterMs <= 0 {
						t.Errorf("429 body = %+v", qe)
					}
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After header")
					}
				default:
					results[name].other++
					b, _ := io.ReadAll(resp.Body)
					t.Errorf("tenant %s: status %d: %s", name, resp.StatusCode, b)
				}
			}(tc.Name, tc.Key)
		}
	}
	wg.Wait()

	for _, tc := range tenants {
		got, want := results[tc.Name], int64(tc.Burst)
		if got.ok != want || got.throttled != int64(requests[tc.Name])-want || got.other != 0 {
			t.Errorf("tenant %s: ok=%d throttled=%d other=%d, want ok=%d throttled=%d",
				tc.Name, got.ok, got.throttled, got.other, want, int64(requests[tc.Name])-want)
		}
		ten, ok := srv.Tenants().Get(tc.Name)
		if !ok {
			t.Fatalf("tenant %s missing from directory", tc.Name)
		}
		if ten.QueriesServed.Load() != got.ok || ten.RejectedRate.Load() != got.throttled {
			t.Errorf("tenant %s counters: served=%d rejectedRate=%d, HTTP saw ok=%d throttled=%d",
				tc.Name, ten.QueriesServed.Load(), ten.RejectedRate.Load(), got.ok, got.throttled)
		}
		if ten.InFlight.Load() != 0 || ten.InFlightLoad() != 0 {
			t.Errorf("tenant %s: in-flight not drained (%d queries, %d load)",
				tc.Name, ten.InFlight.Load(), ten.InFlightLoad())
		}
	}

	// The Prometheus exposition must carry the same exact totals.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, _ := io.ReadAll(resp.Body)
	for _, tc := range tenants {
		served := fmt.Sprintf("mpcserve_tenant_queries_total{tenant=%q} %d", tc.Name, results[tc.Name].ok)
		rejected := fmt.Sprintf("mpcserve_tenant_rejected_total{tenant=%q,reason=%q} %d", tc.Name, ReasonRate, results[tc.Name].throttled)
		for _, want := range []string{served, rejected} {
			if !strings.Contains(string(prom), want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
}

// TestQueryTraceRecorded asserts POST /query publishes a finished
// trace: GET /trace/{queryID} returns one round span per round and
// one worker span per worker per round, each within the planner's
// predicted load on a uniform matching input.
func TestQueryTraceRecorded(t *testing.T) {
	srv := New(Config{DefaultP: 4})
	db, err := Generate(GeneratorSpec{Family: "C3", N: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("tri", db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(QueryRequest{Dataset: "tri", Family: "C3"})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.QueryID == "" {
		t.Fatalf("status %d, queryID %q", resp.StatusCode, qr.QueryID)
	}

	tresp, err := http.Get(hs.URL + "/trace/" + qr.QueryID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: status %d", qr.QueryID, tresp.StatusCode)
	}
	var tr struct {
		QueryID             string  `json:"queryID"`
		Engine              string  `json:"engine"`
		P                   int     `json:"p"`
		PredictedLoadTuples float64 `json:"predictedLoadTuples"`
		BudgetLoadTuples    int64   `json:"budgetLoadTuples"`
		DurationNs          int64   `json:"durationNs"`
		Spans               []struct {
			Name       string `json:"name"`
			Round      int    `json:"round"`
			Worker     int    `json:"worker"`
			LoadTuples int64  `json:"loadTuples"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.QueryID != qr.QueryID || tr.P != 4 || tr.DurationNs == 0 {
		t.Fatalf("trace header = %+v", tr)
	}
	// The point prediction L is an expectation; hashing variance puts
	// individual workers a little above it. The enforceable per-worker
	// bound is the planner's budget c·N/p^(1−ε).
	bound := float64(tr.BudgetLoadTuples)
	if bound <= 0 {
		bound = 2 * tr.PredictedLoadTuples
	}
	rounds, workerSpans := 0, 0
	for _, s := range tr.Spans {
		switch s.Name {
		case "round":
			rounds++
		case "worker":
			workerSpans++
			if s.Worker < 0 || s.Worker >= tr.P {
				t.Errorf("worker span outside pool: %+v", s)
			}
			if float64(s.LoadTuples) > bound {
				t.Errorf("worker %d round %d actual load %d exceeds planner bound %.1f (predicted L %.1f)",
					s.Worker, s.Round, s.LoadTuples, bound, tr.PredictedLoadTuples)
			}
		}
	}
	if rounds != qr.Rounds || rounds == 0 {
		t.Fatalf("round spans = %d, response rounds = %d", rounds, qr.Rounds)
	}
	if workerSpans != rounds*tr.P {
		t.Fatalf("worker spans = %d, want %d (rounds %d × p %d)", workerSpans, rounds*tr.P, rounds, tr.P)
	}

	// Unknown ids 404; the listing and /ops include the execution.
	if r2, _ := http.Get(hs.URL + "/trace/q-none"); r2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /trace/q-none: status %d, want 404", r2.StatusCode)
	}
	var list []TraceSummary
	r3, err := http.Get(hs.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if err := json.NewDecoder(r3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].QueryID != qr.QueryID || list[0].Active {
		t.Fatalf("trace listing = %+v", list)
	}
	var ops OpsReport
	r4, err := http.Get(hs.URL + "/ops")
	if err != nil {
		t.Fatal(err)
	}
	defer r4.Body.Close()
	if err := json.NewDecoder(r4.Body).Decode(&ops); err != nil {
		t.Fatal(err)
	}
	if len(ops.Queries) != 1 || ops.Queries[0].QueryID != qr.QueryID || ops.MultiTenant {
		t.Fatalf("ops report queries = %+v, multiTenant = %v", ops.Queries, ops.MultiTenant)
	}
}

// TestMultiroundQueryTraced is the regression for the multiround
// engine dropping ExecOptions.Trace: a served L4 at ε = 0 (the
// chain4_warm shape, a two-round Γ^r_ε plan) must leave one round span
// per round with p worker spans under each, and the loads on those
// spans must add up to the totals the reply reports.
func TestMultiroundQueryTraced(t *testing.T) {
	const p = 16
	srv := New(Config{DefaultP: p})
	db, err := Generate(GeneratorSpec{Family: "L4", N: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("chain", db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(QueryRequest{Dataset: "chain", Family: "L4", Epsilon: "0"})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(qr.Engine, "multiround") || qr.Rounds < 2 {
		t.Fatalf("status %d, engine %q, %d rounds; want a served multiround plan", resp.StatusCode, qr.Engine, qr.Rounds)
	}
	assertRoundSpans(t, hs.URL, qr, p)
}

// assertRoundSpans fetches the reply's trace and checks its shape
// against the reply: one round span per reported round, p worker spans
// under each, and span loads that add up to the reply's totals.
func assertRoundSpans(t *testing.T, url string, qr QueryResponse, p int) {
	t.Helper()
	tresp, err := http.Get(url + "/trace/" + qr.QueryID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tr trace.Trace
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	workersUnder := map[uint64]int{} // round span id → worker spans
	roundOf := map[uint64]int{}
	for _, s := range tr.Spans {
		if s.Name == "round" {
			roundOf[s.ID] = s.Round
		}
	}
	var bits, maxLoad int64
	for _, s := range tr.Spans {
		if s.Name != "worker" {
			continue
		}
		if round, ok := roundOf[s.Parent]; !ok || round != s.Round {
			t.Errorf("worker span %+v is not under its round's span", s)
		}
		workersUnder[s.Parent]++
		bits += s.LoadBits
		maxLoad = max(maxLoad, s.LoadTuples)
	}
	if len(roundOf) != qr.Rounds {
		t.Fatalf("%d round spans, reply reports %d rounds", len(roundOf), qr.Rounds)
	}
	for id, round := range roundOf {
		if workersUnder[id] != p {
			t.Errorf("round %d has %d worker spans, want %d", round, workersUnder[id], p)
		}
	}
	if bits != qr.TotalBits || maxLoad != qr.MaxLoadTuples {
		t.Errorf("worker spans carry %d bits, max load %d; reply reports %d, %d", bits, maxLoad, qr.TotalBits, qr.MaxLoadTuples)
	}
}

// TestDatalogQueryTraced: a served recursive program is traced like a
// conjunctive query — every round of every execution the program opens
// (the recursive rule's cold round and each delta round; the base rule
// opens none) leaves a round span with p worker spans, and the span
// loads add up to the reply's totals.
func TestDatalogQueryTraced(t *testing.T) {
	const p = 4
	srv := New(Config{DefaultP: p})
	db, err := Generate(GeneratorSpec{Query: "e(x,y)", N: 60, Kind: "zipf", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("graph", db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(QueryRequest{Dataset: "graph", Program: "tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z). ?- tc(x,y)."})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Engine != "datalog" || qr.Iterations < 1 || qr.Rounds < 3 {
		t.Fatalf("status %d, engine %q, %d iterations, %d rounds; want a served recursive program", resp.StatusCode, qr.Engine, qr.Iterations, qr.Rounds)
	}
	assertRoundSpans(t, hs.URL, qr, p)
}

// TestProgramBooksWhatItReads: a program books the relations it reads,
// plus one — not the dataset's other relations.
func TestProgramBooksWhatItReads(t *testing.T) {
	s := New(Config{})
	e, unread := relation.New("e", "x", "y"), relation.New("big", "x", "y")
	e.Tuples = []relation.Tuple{{1, 2}, {2, 3}, {3, 4}}
	for v := 1; v <= 100; v++ {
		unread.Tuples = append(unread.Tuples, relation.Tuple{v, v})
	}
	if _, err := s.Registry().Add("g", relation.DatabaseOf(e, unread)); err != nil {
		t.Fatal(err)
	}
	j, err := s.resolveProgram(QueryRequest{Dataset: "g", Program: "tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z)."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.cost != 4 {
		t.Errorf("the program books %d tuples, want |e| + 1 = 4", j.cost)
	}
}
