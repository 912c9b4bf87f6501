package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// graphCSV renders the test graph as the CSV body of relation e: a
// 12-node chain with back and skip edges, enough to need several
// fixpoint iterations.
func graphCSV() string {
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for i := 1; i < 12; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i+1)
	}
	sb.WriteString("4,2\n9,3\n1,7\n")
	return sb.String()
}

// graphEdges parses graphCSV back into pairs for the reference
// closure.
func graphEdges() [][2]int {
	var edges [][2]int
	for _, line := range strings.Split(strings.TrimSpace(graphCSV()), "\n")[1:] {
		var a, b int
		fmt.Sscanf(line, "%d,%d", &a, &b)
		edges = append(edges, [2]int{a, b})
	}
	return edges
}

// closurePairs is the naive transitive closure reference, sorted.
func closurePairs(edges [][2]int) [][]int {
	reach := map[[2]int]bool{}
	for _, e := range edges {
		reach[e] = true
	}
	for changed := true; changed; {
		changed = false
		for ab := range reach {
			for _, e := range edges {
				if e[0] == ab[1] && !reach[[2]int{ab[0], e[1]}] {
					reach[[2]int{ab[0], e[1]}] = true
					changed = true
				}
			}
		}
	}
	out := make([][]int, 0, len(reach))
	for ab := range reach {
		out = append(out, []int{ab[0], ab[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// newGraphServer registers the edge dataset under "graph".
func newGraphServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	db, err := serve.DatabaseFromCSV(map[string]string{"e": graphCSV()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("graph", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

const tcServeProgram = `tc(x,y) :- e(x,y).
tc(x,z) :- tc(x,y), e(y,z).
?- tc(x,y).`

// TestServeDatalogRecursive: POST /query with a recursive program
// returns the exact transitive closure, flags the datalog engine, and
// reports fixpoint iterations.
func TestServeDatalogRecursive(t *testing.T) {
	_, ts := newGraphServer(t, serve.Config{DefaultP: 4})
	want := closurePairs(graphEdges())

	out, _ := postQuery(t, ts.URL, serve.QueryRequest{
		Dataset: "graph", Program: tcServeProgram, MaxAnswers: 100000,
	})
	if out.Engine != "datalog" {
		t.Fatalf("engine = %q, want datalog", out.Engine)
	}
	if out.Iterations < 2 {
		t.Fatalf("iterations = %d, want ≥ 2 on a 12-node chain", out.Iterations)
	}
	if out.Rounds < 1 || out.TotalBits <= 0 {
		t.Fatalf("rounds = %d, totalBits = %d: execution left no communication record", out.Rounds, out.TotalBits)
	}
	if !reflect.DeepEqual(out.Answers, want) {
		t.Fatalf("closure: got %d pairs, reference %d", len(out.Answers), len(want))
	}
	if !reflect.DeepEqual(out.Vars, []string{"x", "y"}) {
		t.Fatalf("vars = %v", out.Vars)
	}
	if !strings.Contains(out.Explain, "recursive") {
		t.Fatalf("explain does not mention recursion:\n%s", out.Explain)
	}

	// The same program inline in the query field routes identically:
	// ':-' selects the Datalog front end.
	inline, _ := postQuery(t, ts.URL, serve.QueryRequest{
		Dataset: "graph", Query: tcServeProgram, MaxAnswers: 100000,
	})
	if !reflect.DeepEqual(inline.Answers, want) || inline.Engine != "datalog" {
		t.Fatalf("inline routing: engine %q, %d answers", inline.Engine, len(inline.Answers))
	}
}

// TestServeChecksCap: the cap a query plans with is the cap its
// execution checks, and a Datalog program takes it too. C3 at n = 2000
// on 8 workers sends 1,532 tuples to its busiest worker, past the budget
// at c = 0.05, so the query and the one-rule program answering the same
// triangles both report capExceeded; at c = 0 nothing is checked. Until
// the service passed the cap to the execution, both read false at 0.05.
func TestServeChecksCap(t *testing.T) {
	for _, c := range []float64{0.05, 0} {
		_, ts := newTestServer(t, serve.Config{DefaultP: 8, CapFactor: c}, 2000)
		for _, req := range []serve.QueryRequest{
			{Dataset: "tri", Family: "C3"},
			{Dataset: "tri", Program: `q(x,y,z) :- S1(x,y), S2(y,z), S3(z,x).`},
		} {
			out, _ := postQuery(t, ts.URL, req)
			if out.CapExceeded != (c > 0) {
				t.Errorf("cap %g, %s: capExceeded %v at max load %d", c, out.Engine, out.CapExceeded, out.MaxLoadTuples)
			}
		}
	}
}

// TestServeDatalogAggregate: an aggregate head folds in the gather and
// matches per-group counts computed directly from the edge list.
func TestServeDatalogAggregate(t *testing.T) {
	_, ts := newGraphServer(t, serve.Config{DefaultP: 4})
	counts := map[int]int{}
	for _, e := range graphEdges() {
		counts[e[0]]++
	}
	want := make([][]int, 0, len(counts))
	for x, c := range counts {
		want = append(want, []int{x, c})
	}
	sort.Slice(want, func(i, j int) bool { return want[i][0] < want[j][0] })

	out, _ := postQuery(t, ts.URL, serve.QueryRequest{
		Dataset: "graph", Program: `deg(x, count(y)) :- e(x,y).`, MaxAnswers: 100000,
	})
	if !reflect.DeepEqual(out.Answers, want) {
		t.Fatalf("degree counts: got %v, want %v", out.Answers, want)
	}
	if out.Iterations != 0 {
		t.Fatalf("iterations = %d on a non-recursive program", out.Iterations)
	}
}

// TestServeDatalogWorkerPool: the same recursive program on a fixed
// remote worker pool — identical answers, distributed counter ticks.
func TestServeDatalogWorkerPool(t *testing.T) {
	addrs := startWorkerPool(t, 3)
	srv, ts := newGraphServer(t, serve.Config{WorkerAddrs: addrs})
	want := closurePairs(graphEdges())

	out, _ := postQuery(t, ts.URL, serve.QueryRequest{
		Dataset: "graph", Program: tcServeProgram, MaxAnswers: 100000,
	})
	if !reflect.DeepEqual(out.Answers, want) {
		t.Fatalf("pool closure: got %d pairs, reference %d", len(out.Answers), len(want))
	}
	if out.P != 3 {
		t.Fatalf("p = %d, want pool size 3", out.P)
	}
	if got := srv.Metrics().DistributedQueries.Load(); got < 1 {
		t.Fatalf("DistributedQueries = %d, want ≥ 1", got)
	}
	// The program borrowed two sessions (base rule, the recursive rule's
	// distribution) — the second is the first, parked and reset — so it
	// dialled at most two, and ran them fused: one acknowledged pool-wide
	// exchange per model round, and one more for the gather of the
	// closure, which stays on the workers until the fixpoint is done.
	pool := srv.Pool()
	dials, ex := pool.Usage().Dials, pool.Usage().Exchanges
	if dials < 1 || dials > 2 || ex != int64(out.Rounds+1) {
		t.Fatalf("pool dials = %d, exchanges = %d; want at most 2 and %d (the rounds and the closure's gather)", dials, ex, out.Rounds+1)
	}
	// An identical second program finds its sessions parked: it dials
	// nothing, and its exchanges are still its rounds and one gather.
	again, _ := postQuery(t, ts.URL, serve.QueryRequest{
		Dataset: "graph", Program: tcServeProgram, MaxAnswers: 100000,
	})
	if !reflect.DeepEqual(again.Answers, want) {
		t.Fatalf("second run: %d pairs, reference %d", len(again.Answers), len(want))
	}
	if d, e := pool.Usage().Dials-dials, pool.Usage().Exchanges-ex; d != 0 || e != int64(again.Rounds+1) {
		t.Fatalf("the second program dialled %d sessions and made %d exchanges; want 0 and %d (the rounds and the gather)", d, e, again.Rounds+1)
	}
	// A one-shot query runs fused too: its one round is one exchange (a
	// first sighting of the dataset version attaches to nothing), on a
	// parked session.
	q, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "graph", Query: "q(x,y) = e(x,y)"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range []string{
		fmt.Sprintf("mpcserve_pool_dials_total %d\n", dials),
		fmt.Sprintf("mpcserve_pool_exchanges_total %d\n", out.Rounds+again.Rounds+2+q.Rounds),
		fmt.Sprintf("mpcserve_pool_sessions_reused_total %d\n", 5-dials),
	} {
		if !strings.Contains(string(text), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestServeDatalogRecoversWorker: a served recursive program is
// self-healing like a served conjunctive query. The first run measures
// what worker 1 reads in the recursive rule's session; the second run
// cuts that session off halfway. The reply must still be the closure,
// with the first run's communication record, and report the one
// replacement — as must the worker-replacements metric.
func TestServeDatalogRecoversWorker(t *testing.T) {
	const p = 3
	var workers []*meteredWorker
	var addrs []string
	for i := 0; i < p+1; i++ { // p members and a spare
		w, addr := startMeteredWorker(t)
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	_, ts := newGraphServer(t, serve.Config{WorkerAddrs: addrs[:p], SpareAddrs: addrs[p:]})
	req := serve.QueryRequest{Dataset: "graph", Program: tcServeProgram, MaxAnswers: 100000}

	// A program run borrows two sessions — the base rule's execution,
	// then the recursive rule's maintainer — and the second is the first,
	// parked and reset: connection 0 of every worker carries the hello,
	// the base rule, a reset, the maintainer and a reset.
	ref, _ := postQuery(t, ts.URL, req)
	if ref.WorkerReplacements != 0 || !reflect.DeepEqual(ref.Answers, closurePairs(graphEdges())) {
		t.Fatalf("healthy run: %d replacements, %d answers", ref.WorkerReplacements, len(ref.Answers))
	}
	conn, accepted := workers[1].conn(0)
	spans := conn.frames()
	for deadline := time.Now().Add(10 * time.Second); len(spans[wire.TypeReset]) < 2; spans = conn.frames() {
		if time.Now().After(deadline) { // the last reset is off the reply's path
			t.Fatalf("connection 0 read %d resets, want 2", len(spans[wire.TypeReset]))
		}
		time.Sleep(time.Millisecond)
	}
	if accepted != 1 || len(spans[wire.TypeHello]) != 1 {
		t.Fatalf("worker 1 accepted %d connections, the first read %d hellos; want 1 and 1", accepted, len(spans[wire.TypeHello]))
	}
	hello, first, last := spans[wire.TypeHello][0], spans[wire.TypeReset][0], spans[wire.TypeReset][1]
	base, maintainer := first[0]-hello[1], last[0]-first[1]
	// The second run is the first again on the same connection, without a
	// hello: cut its maintainer off halfway.
	conn.budget.Store(last[1] + base + (last[1] - last[0]) + maintainer/2)

	out, _ := postQuery(t, ts.URL, req)
	if out.WorkerReplacements != 1 {
		t.Errorf("workerReplacements = %d, want 1", out.WorkerReplacements)
	}
	if !reflect.DeepEqual(out.Answers, ref.Answers) {
		t.Errorf("recovered run: %d answers, healthy run %d", len(out.Answers), len(ref.Answers))
	}
	if out.Rounds != ref.Rounds || out.Iterations != ref.Iterations || out.MaxLoadTuples != ref.MaxLoadTuples ||
		!reflect.DeepEqual(out.PerRoundBits, ref.PerRoundBits) {
		t.Errorf("recovered run's record diverges: %d rounds %v, healthy %d rounds %v",
			out.Rounds, out.PerRoundBits, ref.Rounds, ref.PerRoundBits)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), "mpcserve_worker_replacements_total 1\n") {
		t.Errorf("/healthz does not report the replacement")
	}
}

// TestServeDatalogRejections: the strict front end's errors surface as
// client errors, not 500s.
func TestServeDatalogRejections(t *testing.T) {
	_, ts := newGraphServer(t, serve.Config{DefaultP: 4})
	post := func(req serve.QueryRequest) (int, string) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	cases := []struct {
		name string
		req  serve.QueryRequest
		code int
		frag string
	}{
		{"syntax error", serve.QueryRequest{Dataset: "graph", Program: "tc(x,y) :- e(x,y)"}, 400, "expected ',' or '.'"},
		{"unsafe rule", serve.QueryRequest{Dataset: "graph", Program: "p(x,z) :- e(x,y)."}, 400, "unsafe"},
		{"program and query", serve.QueryRequest{Dataset: "graph", Program: "p(x,y) :- e(x,y).", Query: "e(x,y)"}, 400, "not a combination"},
		{"program and family", serve.QueryRequest{Dataset: "graph", Program: "p(x,y) :- e(x,y).", Family: "C3"}, 400, "not a combination"},
		{"unknown dataset", serve.QueryRequest{Dataset: "nope", Program: "p(x,y) :- e(x,y)."}, 404, "unknown dataset"},
		{"missing edb", serve.QueryRequest{Dataset: "graph", Program: "p(x,y) :- f(x,y)."}, 422, ""},
		{"bad eps", serve.QueryRequest{Dataset: "graph", Program: "p(x,y) :- e(x,y).", Epsilon: "3/2"}, 400, "outside"},
	}
	for _, tc := range cases {
		code, msg := post(tc.req)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, msg, tc.code)
		} else if tc.frag != "" && !strings.Contains(msg, tc.frag) {
			t.Errorf("%s: error %q does not contain %q", tc.name, msg, tc.frag)
		}
	}
}

// TestServeDatalogPlansCached: a program's rule plans are cached like a
// query's. The closure's one non-recursive rule is a plan-cache miss on
// the first run and a hit on the second, with the same answers and the
// same communication record; a delta is a new dataset version, planned
// afresh; a program that differs is keyed apart.
func TestServeDatalogPlansCached(t *testing.T) {
	srv, ts := newGraphServer(t, serve.Config{DefaultP: 4})
	m := srv.Metrics()
	lookups := func() [2]int64 { return [2]int64{m.PlanCacheHits.Load(), m.PlanCacheMisses.Load()} }
	req := serve.QueryRequest{Dataset: "graph", Program: tcServeProgram, MaxAnswers: 100000}

	first, _ := postQuery(t, ts.URL, req)
	if got := lookups(); got != [2]int64{0, 1} {
		t.Fatalf("first run: hits, misses = %v; want 0, 1", got)
	}
	second, _ := postQuery(t, ts.URL, req)
	if got := lookups(); got != [2]int64{1, 1} {
		t.Fatalf("second run: hits, misses = %v; want 1, 1", got)
	}
	if !reflect.DeepEqual(second.Answers, first.Answers) || second.TotalBits != first.TotalBits ||
		!reflect.DeepEqual(second.PerRoundBits, first.PerRoundBits) {
		t.Fatalf("the cached plan answered or charged differently: %d answers, %d bits; first run %d, %d",
			len(second.Answers), second.TotalBits, len(first.Answers), first.TotalBits)
	}

	if code := postJSON(t, ts.URL+"/datasets/graph/delta", serve.DeltaRequest{
		Appends: map[string][][]int{"e": {{12, 1}}},
	}, &serve.DeltaResponse{}); code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}
	if out, _ := postQuery(t, ts.URL, req); lookups() != [2]int64{1, 2} || len(out.Answers) != 12*12 {
		t.Fatalf("after a delta closing the cycle: hits, misses = %v and %d answers; want 1, 2 and %d", lookups(), len(out.Answers), 12*12)
	}
	req.Program = "r(x,y) :- e(x,y)."
	postQuery(t, ts.URL, req)
	if got := lookups(); got != [2]int64{1, 3} {
		t.Fatalf("another program: hits, misses = %v; want 1, 3", got)
	}
}
