package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/skew"
	"repro/internal/trace"
	"repro/internal/wire"
)

// startWorkerPool spins up n in-process TCP worker listeners (the
// cmd/mpcworker serving path) and returns their addresses.
func startWorkerPool(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go dist.Serve(ctx, ln)
	}
	return addrs
}

// TestWorkerPoolExecution: a server configured with WorkerAddrs
// executes queries on the remote pool — answers identical to ground
// truth, the distributed counter ticks, and concurrent queries share
// the pool safely (per-execution sessions).
func TestWorkerPoolExecution(t *testing.T) {
	addrs := startWorkerPool(t, 3)
	// MaxP below the pool size must be reconciled by the config
	// defaults, not reject every request.
	srv, ts := newTestServer(t, serve.Config{WorkerAddrs: addrs, MaxP: 1}, 200)
	truth := triangleTruth(t, srv)

	out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3", MaxAnswers: -1})
	if out.P != 3 {
		t.Fatalf("p = %d, want pool size 3", out.P)
	}
	if out.AnswerCount != len(truth) {
		t.Fatalf("%d answers, ground truth %d", out.AnswerCount, len(truth))
	}
	if got := srv.Metrics().DistributedQueries.Load(); got != 1 {
		t.Fatalf("DistributedQueries = %d, want 1", got)
	}

	// Concurrent queries: isolated sessions on the shared processes.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"})
			if out.AnswerCount != len(truth) {
				t.Errorf("concurrent query: %d answers, want %d", out.AnswerCount, len(truth))
			}
		}()
	}
	wg.Wait()
	if got := srv.Metrics().DistributedQueries.Load(); got != 9 {
		t.Fatalf("DistributedQueries = %d, want 9", got)
	}
}

// TestWorkerPoolRejectsMismatchedP: with a fixed pool, a request
// asking for a different p is a client error, not a silent resize.
func TestWorkerPoolRejectsMismatchedP(t *testing.T) {
	addrs := startWorkerPool(t, 2)
	_, ts := newTestServer(t, serve.Config{WorkerAddrs: addrs}, 60)
	body := strings.NewReader(`{"dataset":"tri","family":"C3","p":16}`)
	resp, err := http.Post(ts.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "fixed pool") {
		t.Fatalf("error %q does not explain the fixed pool", e.Error)
	}
}

// killableWorker is one worker listener whose death can be forced
// synchronously: kill closes the listener and every accepted session
// connection, the way a SIGKILLed mpcworker process disappears.
type killableWorker struct {
	ln     net.Listener
	cancel context.CancelFunc
	mu     sync.Mutex
	conns  []net.Conn
	dead   bool
}

// startKillableWorker starts one worker listener and returns it with
// its address.
func startKillableWorker(t *testing.T) (*killableWorker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &killableWorker{ln: ln, cancel: cancel}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			w.mu.Lock()
			if w.dead {
				w.mu.Unlock()
				c.Close()
				continue
			}
			w.conns = append(w.conns, c)
			w.mu.Unlock()
			go dist.ServeConn(ctx, c)
		}
	}()
	t.Cleanup(w.kill)
	return w, ln.Addr().String()
}

// kill takes the worker down hard.
func (w *killableWorker) kill() {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	conns := w.conns
	w.conns = nil
	w.mu.Unlock()
	w.cancel()
	w.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// TestWorkerPoolHealsAfterMemberDeath is the regression test for the
// permanent-502 failure mode: before the pool registry, a single dead
// member failed every subsequent distributed query until an operator
// restarted the service. Now the dial failure triggers an immediate
// reconcile that promotes the spare, and the same request succeeds.
func TestWorkerPoolHealsAfterMemberDeath(t *testing.T) {
	var workers []*killableWorker
	var addrs []string
	for i := 0; i < 4; i++ { // 3 members + 1 spare
		w, addr := startKillableWorker(t)
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	members, spare := addrs[:3], addrs[3]
	srv, ts := newTestServer(t, serve.Config{WorkerAddrs: members, SpareAddrs: []string{spare}}, 200)
	truth := triangleTruth(t, srv)

	out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3", MaxAnswers: -1})
	if out.AnswerCount != len(truth) {
		t.Fatalf("healthy pool: %d answers, ground truth %d", out.AnswerCount, len(truth))
	}

	// A member dies. The next query must still be answered — dial
	// fails, the registry reconciles the spare into the slot, and the
	// retry succeeds — instead of returning 502 forever.
	workers[1].kill()
	out, resp := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3", MaxAnswers: -1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after member death: status %d, want 200", resp.StatusCode)
	}
	if out.AnswerCount != len(truth) {
		t.Fatalf("healed pool: %d answers, ground truth %d", out.AnswerCount, len(truth))
	}
	if got := srv.Metrics().PoolRepairs.Load(); got < 1 {
		t.Fatalf("PoolRepairs = %d, want ≥ 1", got)
	}
	if gen := srv.Pool().Generation(); gen != 1 {
		t.Fatalf("pool generation = %d, want 1", gen)
	}
	if got := srv.Pool().Members(); got[1] != spare {
		t.Fatalf("member 1 = %s, want promoted spare %s", got[1], spare)
	}
}

// TestWorkerPoolUnavailable: a dead pool surfaces as 502, not a hang
// or a fallback to in-process execution — for a query, and for a Datalog
// program, whose executions borrow their sessions inside the evaluator.
// The failure comes after admission, so the reply names the query's
// trace, and that trace holds the failure as its "error" event.
func TestWorkerPoolUnavailable(t *testing.T) {
	// Reserve an address and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, ts := newTestServer(t, serve.Config{WorkerAddrs: []string{dead}}, 60)
	for _, body := range []string{
		`{"dataset":"tri","family":"C3"}`,
		`{"dataset":"tri","program":"q(x,y,z) :- S1(x,y), S2(y,z), S3(z,x)."}`,
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error   string `json:"error"`
			QueryID string `json:"queryID"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadGateway || reply.QueryID == "" {
			t.Fatalf("%s: status %d, reply %+v (%v); want 502 naming the query", body, resp.StatusCode, reply, err)
		}
		var tr trace.Trace
		if code := getJSON(t, ts.URL+"/trace/"+reply.QueryID, &tr); code != http.StatusOK {
			t.Fatalf("GET /trace/%s: status %d", reply.QueryID, code)
		}
		events := 0
		for _, s := range tr.Spans {
			if s.Name == "error" && s.Note != "" && strings.Contains(reply.Error, s.Note) {
				events++
			}
		}
		if events != 1 {
			t.Errorf("%s: trace %s holds %d error events matching %q, want 1", body, reply.QueryID, events, reply.Error)
		}
	}
}

// meteredWorker is a worker listener that records the bytes every
// connection reads and can cut one chosen connection off at a byte offset
// — the deterministic stand-in for a process dying mid-query: what the
// coordinator streams to a worker is a function of the program, the data
// and the seed, so "connection k dies b bytes in" is the same point of the
// execution on every run, however TCP segments the stream. A connection
// is a session, and carries one execution after another.
type meteredWorker struct {
	mu    sync.Mutex
	conns []*meteredConn // in accept order
}

// startMeteredWorker starts the listener and returns it with its
// address.
func startMeteredWorker(t *testing.T) (*meteredWorker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); ln.Close() })
	w := &meteredWorker{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mc := &meteredConn{Conn: c}
			mc.budget.Store(-1)
			w.mu.Lock()
			w.conns = append(w.conns, mc)
			w.mu.Unlock()
			go func() {
				defer c.Close()
				_ = dist.ServeConn(ctx, mc)
			}()
		}
	}()
	return w, ln.Addr().String()
}

// conn returns connection i, and how many were accepted.
func (w *meteredWorker) conn(i int) (*meteredConn, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conns[i], len(w.conns)
}

// meteredConn records what is read through it and, given a budget ≥ 0,
// closes the connection once exactly that many bytes have been read.
type meteredConn struct {
	net.Conn
	mu     sync.Mutex
	read   []byte
	budget atomic.Int64
}

// Read implements net.Conn.
func (c *meteredConn) Read(b []byte) (int, error) {
	if budget := c.budget.Load(); budget >= 0 {
		left := budget - int64(len(c.bytes()))
		if left <= 0 {
			c.Conn.Close()
			return 0, io.EOF
		}
		b = b[:min(int64(len(b)), left)]
	}
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read = append(c.read, b[:n]...)
	c.mu.Unlock()
	return n, err
}

// bytes returns what the connection has read so far.
func (c *meteredConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read
}

// frames returns where each whole frame read so far starts and ends, by
// type — the wire's header is a type byte and a big-endian length.
func (c *meteredConn) frames() map[wire.Type][][2]int64 {
	b := c.bytes()
	spans := make(map[wire.Type][][2]int64)
	for at := int64(0); int64(len(b)) >= at+5; {
		end := at + 5 + int64(binary.BigEndian.Uint32(b[at+1:]))
		if int64(len(b)) < end {
			break
		}
		spans[wire.Type(b[at])] = append(spans[wire.Type(b[at])], [2]int64{at, end})
		at = end
	}
	return spans
}

// TestWorkerPoolResidentScatter drives the resident scatter through the
// service: the third identical query attaches to what the second asked
// the workers to keep, the reply says so and charges what the first
// charged, /metrics counts it, and a delta — a new version — starts over
// while the loopback service never asks at all.
func TestWorkerPoolResidentScatter(t *testing.T) {
	addrs := startWorkerPool(t, 3)
	srv, ts := newTestServer(t, serve.Config{WorkerAddrs: addrs, MaxAnswers: 100000}, 300)
	ask := func() *serve.QueryResponse {
		out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"})
		return out
	}
	counters := func() [3]int64 {
		m := srv.Metrics()
		return [3]int64{m.ScatterHits[plan.OneRound].Load(), m.ScatterMisses.Load(), m.ScatterRetained.Load()}
	}
	first, second, third := ask(), ask(), ask()
	if first.ScatterResident != 0 || second.ScatterResident != 0 || third.ScatterResident != 3 {
		t.Fatalf("scatterResident = %d, %d, %d; want 0, 0, 3", first.ScatterResident, second.ScatterResident, third.ScatterResident)
	}
	for i, out := range []*serve.QueryResponse{second, third} {
		if out.Rounds != first.Rounds || out.TotalBits != first.TotalBits || out.MaxLoadTuples != first.MaxLoadTuples ||
			!reflect.DeepEqual(out.PerRoundBits, first.PerRoundBits) || !reflect.DeepEqual(out.Answers, first.Answers) {
			t.Fatalf("query %d is charged or answered differently from the fresh one:\n%+v\n%+v", i+2, out, first)
		}
	}
	if got := counters(); got[0] != 3 || got[1] != 0 || got[2] == 0 {
		t.Fatalf("hits, misses, retained = %v; want 3, 0, > 0", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`mpcserve_scatter_resident_hits_total{engine="one-round hypercube"} 3` + "\n",
		`mpcserve_scatter_resident_hits_total{engine="skew-aware routing"} 0` + "\n",
		"mpcserve_scatter_resident_misses_total 0\n",
		"mpcserve_scatter_resident_retained_total ",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	tr, err := http.Get(ts.URL + "/trace/" + third.QueryID)
	if err != nil {
		t.Fatal(err)
	}
	spans, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if !strings.Contains(string(spans), "scatter-resident") || !strings.Contains(string(spans), "S1: 3 hit, 0 miss") {
		t.Errorf("the trace of %s does not name its resident scatters", third.QueryID)
	}

	// A delta is a new version: its scatters are sighted afresh, and the
	// old version's runs are never attached to again.
	ds, _ := srv.Registry().Get("tri")
	a, b, c := freshTriangle(t, ds.DB(), 300)
	if code := postJSON(t, ts.URL+"/datasets/tri/delta", serve.DeltaRequest{
		Appends: map[string][][]int{"S1": {{a, b}}, "S2": {{b, c}}, "S3": {{c, a}}},
	}, &serve.DeltaResponse{}); code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}
	before := counters()
	if out := ask(); out.ScatterResident != 0 || out.AnswerCount != first.AnswerCount+1 {
		t.Fatalf("post-delta query: %d resident scatters, %d answers; want 0 and %d", out.ScatterResident, out.AnswerCount, first.AnswerCount+1)
	}
	if got := counters(); got != before {
		t.Fatalf("a version seen once moved the counters: %v → %v", before, got)
	}

	// Without a pool there is nobody to keep anything.
	lsrv, lts := newTestServer(t, serve.Config{DefaultP: 3}, 300)
	for i := 0; i < 3; i++ {
		if out, _ := postQuery(t, lts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"}); out.ScatterResident != 0 {
			t.Fatalf("loopback query %d reports %d resident scatters", i, out.ScatterResident)
		}
	}
	if m := lsrv.Metrics(); m.ScatterRetained.Load() != 0 {
		t.Fatal("the loopback service asked workers to retain")
	}
}

// TestWorkerPoolResidentSkew: a skew join is resident like a HyperCube
// one — its two scatters are keyed by the routing the plan compiled — so
// over four ops the reply reads scatterResident 0, 0, 2, 2, /metrics
// counts the hits under the skew engine, and a delta starts over. Every
// reply holds the ground truth of the version it ran on.
func TestWorkerPoolResidentSkew(t *testing.T) {
	const n = 3000
	srv := serve.New(serve.Config{WorkerAddrs: startWorkerPool(t, 8)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// R's join column is a permutation of [1, n] and S's is Zipf(2): its
	// top value alone overloads hash routing on 8 workers.
	rng := rand.New(rand.NewPCG(36, 1))
	db := relation.NewDatabase(n)
	r := relation.New("R", "x", "y")
	for i, y := range rng.Perm(n) {
		r.MustAdd(relation.Tuple{1 + i, 1 + y})
	}
	s := relation.SkewedZipf(rng, "S", []string{"y", "z"}, n, 2)
	db.AddRelation(r)
	db.AddRelation(s)
	if _, err := srv.Registry().Add("zipf", db); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse("q(x,y,z) = R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	ask := func(want int) {
		t.Helper()
		out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "zipf", Query: q.String(), MaxAnswers: 1 << 20})
		ds, _ := srv.Registry().Get("zipf")
		truth, err := core.GroundTruth(q, ds.DB())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]relation.Tuple, len(out.Answers))
		for i, a := range out.Answers {
			got[i] = a
		}
		if out.Engine != plan.SkewJoin.String() || out.ScatterResident != want || !reflect.DeepEqual(got, truth) {
			t.Fatalf("%s, %d resident scatters, %d answers; want %s, %d, the %d of ground truth",
				out.Engine, out.ScatterResident, len(got), plan.SkewJoin, want, len(truth))
		}
	}
	for _, want := range []int{0, 0, 2, 2} {
		ask(want)
	}
	if m := srv.Metrics(); m.ScatterHits[plan.SkewJoin].Load() != 4 || m.ScatterHits[plan.OneRound].Load() != 0 {
		t.Fatalf("hits by engine %d, %d, %d; want 4 under the skew engine only",
			m.ScatterHits[0].Load(), m.ScatterHits[1].Load(), m.ScatterHits[2].Load())
	}
	// One more occurrence of the heaviest value, y = 1.
	z := 1
	for slices.ContainsFunc(s.Tuples, func(t relation.Tuple) bool { return t[0] == 1 && t[1] == z }) {
		z++
	}
	if code := postJSON(t, ts.URL+"/datasets/zipf/delta", serve.DeltaRequest{
		Appends: map[string][][]int{"S": {{1, z}}},
	}, &serve.DeltaResponse{}); code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}
	ask(0)
}

// silentWorker listens like a worker, accepts every connection and
// never answers: a SIGSTOPped mpcworker as the network sees it.
func silentWorker(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for c, err := ln.Accept(); err == nil; c, err = ln.Accept() {
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestWorkerPoolSilentMemberBetweenQueries: a member stopped between
// queries — it accepts TCP and never acks a hello — costs the next
// /query one bounded hello and one bounded probe, then Reconcile
// promotes the live spare and the query answers, under a request
// context that never ends. At PR 28's tree the first hello waited on
// the silent member for as long as the request lived: here, for good.
func TestWorkerPoolSilentMemberBetweenQueries(t *testing.T) {
	live := startWorkerPool(t, 3)
	members := []string{live[0], live[1], silentWorker(t)}
	srv, _ := newTestServer(t, serve.Config{WorkerAddrs: members, SpareAddrs: live[2:]}, 200)
	truth := triangleTruth(t, srv)

	body, _ := json.Marshal(serve.QueryRequest{Dataset: "tri", Family: "C3", MaxAnswers: -1})
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	// The hello and the probe are one bound each; the rest is live dials.
	limit := 2*dist.HelloTimeout + time.Second
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("/query still waiting on the silent member after %v", limit)
	}
	t.Logf("answered in %v (bound %v)", time.Since(start), dist.HelloTimeout)
	var out serve.QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status %d, %v", rec.Code, err)
	}
	if out.AnswerCount != len(truth) {
		t.Fatalf("%d answers, ground truth %d", out.AnswerCount, len(truth))
	}
	if got := srv.Pool().Members()[2]; got != live[2] || srv.Metrics().PoolRepairs.Load() != 1 {
		t.Fatalf("member 2 = %s after %d repairs, want the spare %s after one", got, srv.Metrics().PoolRepairs.Load(), live[2])
	}
}

// TestWorkerPoolParksSessions: warm queries run on the session the first
// one dialled. The pool-dials counter stands still across them while the
// reused-sessions counter counts them, the exchanges are still each
// query's own, and every answer is the ground truth.
func TestWorkerPoolParksSessions(t *testing.T) {
	addrs := startWorkerPool(t, 3)
	srv, ts := newTestServer(t, serve.Config{WorkerAddrs: addrs}, 200)
	truth := triangleTruth(t, srv)
	counters := func() (dials, reused, exchanges int64) {
		u := srv.Pool().Usage()
		return u.Dials, u.Reused, u.Exchanges
	}
	ask := func() *serve.QueryResponse {
		out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3", MaxAnswers: -1})
		if out.AnswerCount != len(truth) {
			t.Fatalf("%d answers, ground truth %d", out.AnswerCount, len(truth))
		}
		return out
	}
	ask()
	dials, reused, exchanges := counters()
	if dials != 1 || reused != 0 {
		t.Fatalf("after the first query: %d dials, %d reused sessions; want 1 and 0", dials, reused)
	}
	rounds := 0
	for i := 0; i < 4; i++ {
		rounds += ask().Rounds
	}
	d, r, e := counters()
	if d != dials || r != 4 {
		t.Fatalf("four warm queries moved the dials %d → %d and reused %d sessions; want no dial and 4", dials, d, r)
	}
	if e-exchanges < int64(rounds) {
		t.Fatalf("four warm queries of %d rounds made %d exchanges", rounds, e-exchanges)
	}
}

// poolCounters reads the pool's dials, exchanges and reused sessions off
// /metrics, the way an operator sees them.
func poolCounters(t *testing.T, url string) (dials, exchanges, reused int64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(text), "\n") {
		name, value, _ := strings.Cut(line, " ")
		n, _ := strconv.ParseInt(value, 10, 64)
		switch name {
		case "mpcserve_pool_dials_total":
			dials = n
		case "mpcserve_pool_exchanges_total":
			exchanges = n
		case "mpcserve_pool_sessions_reused_total":
			reused = n
		}
	}
	return dials, exchanges, reused
}

// TestWorkerPoolContinuous: a pool-backed service maintains its
// continuous queries on the pool. Two of them on one dataset — the
// triangle and a two-atom join — hold one session each; three batches
// of appends and deletes dial nothing, cost one pool-wide exchange per
// maintained query, and leave every warm answer at the ground truth of
// the version it reports. A p other than the pool size is refused like a
// query's, DELETE parks both sessions, and the query after it dials
// nothing. When a member with a spare dies between two batches, the next
// batch builds each maintainer again on a fresh session, whose dial
// promotes the spare; that holds for more deaths than the pool has
// workers, because no replacement budget spans batches.
func TestWorkerPoolContinuous(t *testing.T) {
	const n = 200
	c3, err := query.ParseFamily("C3")
	if err != nil {
		t.Fatal(err)
	}
	join, err := query.Parse("q(x,y,z) = S1(x,y), S2(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]*query.Query{"tri-live": c3, "join-live": join}
	register := func(t *testing.T, url string) {
		t.Helper()
		for name, q := range queries {
			if code := postJSON(t, url+"/continuous", serve.ContinuousRequest{Name: name, Dataset: "tri", Query: q.String()}, nil); code != http.StatusCreated {
				t.Fatalf("register %s: status %d", name, code)
			}
		}
	}
	// batch appends a fresh triangle and deletes a tuple of S1 and of S3,
	// then holds both warm answers to the ground truth of the new version.
	batch := func(t *testing.T, srv *serve.Server, url string, version uint64) {
		t.Helper()
		ds, _ := srv.Registry().Get("tri")
		db := ds.DB()
		a, b, c := freshTriangle(t, db, n)
		s1, s3 := db.Relations["S1"].Rows()[0], db.Relations["S3"].Rows()[0]
		var dr serve.DeltaResponse
		if code := postJSON(t, url+"/datasets/tri/delta", serve.DeltaRequest{
			Appends: map[string][][]int{"S1": {{a, b}}, "S2": {{b, c}}, "S3": {{c, a}}},
			Deletes: map[string][][]int{"S1": {s1}, "S3": {s3}},
		}, &dr); code != http.StatusOK || dr.Version != version || len(dr.Maintained) != len(queries) {
			t.Fatalf("delta: status %d, version %d, %d queries maintained; want 200, %d, %d", code, dr.Version, len(dr.Maintained), version, len(queries))
		}
		for name, q := range queries {
			truth, err := core.GroundTruth(q, ds.DB())
			if err != nil {
				t.Fatal(err)
			}
			var ans serve.ContinuousAnswers
			if code := getJSON(t, url+"/continuous/"+name, &ans); code != http.StatusOK {
				t.Fatalf("%s: warm read status %d", name, code)
			}
			if ans.Error != "" || ans.Version != version || !answersMatch(ans.Answers, truth) {
				t.Fatalf("%s at version %d (error %q): %d answers, ground truth %d at version %d",
					name, ans.Version, ans.Error, len(ans.Answers), len(truth), version)
			}
		}
	}

	t.Run("batches", func(t *testing.T) {
		srv, ts := newTestServer(t, serve.Config{WorkerAddrs: startWorkerPool(t, 4), MaxAnswers: 100000}, n)
		register(t, ts.URL)
		dials, exchanges, _ := poolCounters(t, ts.URL)
		if dials != 2 {
			t.Fatalf("two registrations dialled %d sessions, want 2", dials)
		}
		for v := uint64(1); v <= 3; v++ {
			batch(t, srv, ts.URL, v)
			d, e, _ := poolCounters(t, ts.URL)
			if d != dials || e != exchanges+int64(len(queries)) {
				t.Fatalf("batch %d: pool dials %d → %d, exchanges %d → %d; want no dial and one exchange per maintained query",
					v, dials, d, exchanges, e)
			}
			exchanges = e
		}
		if code := postJSON(t, ts.URL+"/continuous", serve.ContinuousRequest{Name: "p8", Dataset: "tri", Family: "C3", P: 8}, nil); code != http.StatusBadRequest {
			t.Fatalf("a registration at p = 8 on a pool of 4: status %d, want 400", code)
		}
		for name := range queries {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/continuous/"+name, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("delete %s: status %d", name, resp.StatusCode)
			}
		}
		postQuery(t, ts.URL, serve.QueryRequest{Dataset: "tri", Family: "C3"})
		if d, _, reused := poolCounters(t, ts.URL); d != dials || reused != 1 {
			t.Fatalf("the query after DELETE: pool dials %d → %d, %d reused sessions; want a parked session", dials, d, reused)
		}
	})

	// killablePool starts members + spares killable workers and a server
	// on them, with both continuous queries registered.
	killablePool := func(t *testing.T, members, spares int) (*serve.Server, string, map[string]*killableWorker, []string) {
		workers := map[string]*killableWorker{}
		var addrs []string
		for i := 0; i < members+spares; i++ {
			w, addr := startKillableWorker(t)
			workers[addr], addrs = w, append(addrs, addr)
		}
		srv, ts := newTestServer(t, serve.Config{WorkerAddrs: addrs[:members], SpareAddrs: addrs[members:], MaxAnswers: 100000}, n)
		register(t, ts.URL)
		return srv, ts.URL, workers, addrs
	}

	t.Run("member dies between batches", func(t *testing.T) {
		srv, url, workers, addrs := killablePool(t, 4, 1)
		batch(t, srv, url, 1)
		batch(t, srv, url, 2)
		dials, _, _ := poolCounters(t, url)
		workers[addrs[1]].kill()
		batch(t, srv, url, 3)
		if got := srv.Metrics().PoolRepairs.Load(); got != 1 {
			t.Fatalf("%d pool members repaired, want the one that died", got)
		}
		if d, _, _ := poolCounters(t, url); d != dials+int64(len(queries)) || srv.Pool().Members()[1] != addrs[4] {
			t.Fatalf("pool dials %d → %d, member 1 at %s; want one dial per rebuilt maintainer and the spare %s",
				dials, d, srv.Pool().Members()[1], addrs[4])
		}
	})

	t.Run("more deaths than workers", func(t *testing.T) {
		const members, deaths = 2, 3
		srv, url, workers, _ := killablePool(t, members, deaths)
		batch(t, srv, url, 1)
		for v := uint64(2); v <= deaths+2; v++ {
			if v <= deaths+1 {
				workers[srv.Pool().Members()[int(v)%members]].kill()
			}
			batch(t, srv, url, v)
		}
		if got := srv.Metrics().PoolRepairs.Load(); got != deaths {
			t.Fatalf("%d pool members repaired, want %d", got, deaths)
		}
	})
}

// TestWorkerPoolGathersOnlyTheReply: on a pool of four workers an L4
// query at ε = 0 asked for five answers ships at most 4·5 answer rows to
// the coordinator (a budget constant of 1.5 keeps the one-round load,
// which meets the default budget exactly at p = 4, out of the plan, so
// the multiround engine's last round is what gathers) — mpcserve_answer_rows_gathered_total and the answer
// gather's span both say how many — while answerCount is every answer
// and the five rows are the ground truth's first. A query asking for the
// count alone ships none. A skew join whose split side repeats rows
// ships at most 4·5 rows for five answers too, and counts them all. A
// non-recursive Datalog program, whose rule body is gathered and
// projected on the coordinator, and a continuous query's maintainer
// still gather every row (a recursive program's reply is
// TestRecursiveProgramGathersOnlyTheReply's).
func TestWorkerPoolGathersOnlyTheReply(t *testing.T) {
	const n = 2000
	addrs := startWorkerPool(t, 4)
	srv, ts := newTestServer(t, serve.Config{WorkerAddrs: addrs, CapFactor: 1.5}, 200)
	db, err := serve.Generate(serve.GeneratorSpec{Family: "L4", N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Add("chain", db); err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(query.Chain(4), db)
	if err != nil {
		t.Fatal(err)
	}
	gathered := func() int64 { return srv.Metrics().AnswerRowsGathered.Load() }

	before := gathered()
	out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "chain", Family: "L4", Epsilon: "0", MaxAnswers: 5})
	shipped := gathered() - before
	if out.Engine != plan.MultiRound.String() || out.AnswerCount != n || len(truth) != n {
		t.Fatalf("engine %q, answerCount %d, ground truth %d; want %q and %d", out.Engine, out.AnswerCount, len(truth), plan.MultiRound, n)
	}
	if !answersMatch(out.Answers, truth[:5]) || !out.Truncated {
		t.Fatalf("answers %v (truncated %v), want the ground truth's first five %v", out.Answers, out.Truncated, truth[:5])
	}
	if shipped < 5 || shipped > 4*5 {
		t.Fatalf("the answer gather shipped %d rows, want 5 to 20", shipped)
	}
	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/trace/"+out.QueryID, &tr); code != http.StatusOK {
		t.Fatalf("GET /trace/%s: status %d", out.QueryID, code)
	}
	var last *trace.Span
	for _, s := range tr.Spans {
		if s.Name == "gather" {
			last = s
		}
	}
	if want := fmt.Sprintf("%d of %d rows shipped", shipped, n); last == nil || last.LoadTuples != shipped || last.Note != want {
		t.Fatalf("the answer gather's span is %+v, want %d rows and the note %q", last, shipped, want)
	}

	before = gathered()
	out, _ = postQuery(t, ts.URL, serve.QueryRequest{Dataset: "chain", Family: "L4", Epsilon: "0", MaxAnswers: -1})
	if out.AnswerCount != n || len(out.Answers) != 0 || gathered() != before {
		t.Fatalf("count only: answerCount %d, %d answers, %d rows gathered; want %d, 0, 0", out.AnswerCount, len(out.Answers), gathered()-before, n)
	}

	// The skew engine: S's join column is Zipf(3) and its z uniform, and R
	// is a quarter of S's size, so S splits its heavy value over more than
	// one server and repeats rows of it; each copy joins on the server its
	// first copy went to, so the outputs are disjoint and the reply's rows
	// are all that ship.
	rng := rand.New(rand.NewPCG(45, 1))
	zipf := relation.NewDatabase(n)
	r := relation.New("R", "x", "y")
	for i, y := range rng.Perm(n / 4) {
		r.MustAdd(relation.Tuple{1 + i, 1 + y})
	}
	zs := relation.SkewedZipf(rng, "S", []string{"y", "z"}, n, 3)
	zipf.AddRelation(r)
	zipf.AddRelation(zs)
	if _, err := srv.Registry().Add("zipf", zipf); err != nil {
		t.Fatal(err)
	}
	if rows := zs.Run(); rows.Len() == rows.Clone().Dedup().Len() {
		t.Fatal("the Zipf relation repeats no row")
	}
	if hv := skew.CompileFromData(r, 1, zs, 0, 4, 1).Heavy; len(hv) == 0 || hv[0].Size < 2 || hv[0].SplitR {
		t.Fatalf("the heavy values %+v: want the top one split by S over more than one server", hv)
	}
	sq := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	skewTruth, err := core.GroundTruth(sq, zipf)
	if err != nil {
		t.Fatal(err)
	}
	before = gathered()
	out, _ = postQuery(t, ts.URL, serve.QueryRequest{Dataset: "zipf", Query: sq.String(), Epsilon: "0", MaxAnswers: 5})
	if shipped := gathered() - before; out.Engine != plan.SkewJoin.String() || out.AnswerCount != len(skewTruth) || shipped > 4*5 || !answersMatch(out.Answers, skewTruth[:5]) {
		t.Fatalf("skew: engine %q, answerCount %d, %d rows gathered, answers %v; want %q, %d, at most 20, %v",
			out.Engine, out.AnswerCount, shipped, out.Answers, plan.SkewJoin, len(skewTruth), skewTruth[:5])
	}

	before = gathered()
	out, _ = postQuery(t, ts.URL, serve.QueryRequest{Dataset: "chain", Program: "p(a, b) :- S1(a, b), S2(b, c). ?- p(a, b).", MaxAnswers: 1})
	if out.AnswerCount != n || len(out.Answers) != 1 || gathered()-before != n {
		t.Fatalf("program: answerCount %d, %d answers, %d rows gathered; want %d, 1, %d", out.AnswerCount, len(out.Answers), gathered()-before, n, n)
	}

	if code := postJSON(t, ts.URL+"/continuous", serve.ContinuousRequest{Name: "chain-live", Dataset: "chain", Query: "q(a, b, c) = S1(a, b), S2(b, c)"}, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	var ans serve.ContinuousAnswers
	if code := getJSON(t, ts.URL+"/continuous/chain-live", &ans); code != http.StatusOK || ans.AnswerCount != n {
		t.Fatalf("continuous: status %d, answerCount %d, want %d", code, ans.AnswerCount, n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("mpcserve_answer_rows_gathered_total %d\n", gathered()); !strings.Contains(string(prom), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestRecursiveProgramGathersOnlyTheReply: the transitive closure of a
// 40-vertex chain stays on a 4-worker pool's grid cells. A reply of five
// answers gathers at most five rows from each worker —
// mpcserve_answer_rows_gathered_total moves by at most 4·5 — and its
// answerCount is still the closure's 780 pairs, the first five of them in
// order; a request for the count alone gathers no row.
func TestRecursiveProgramGathersOnlyTheReply(t *testing.T) {
	const n = 40
	srv, ts := newTestServer(t, serve.Config{WorkerAddrs: startWorkerPool(t, 4)}, 100)
	chain := relation.New("e", "a", "b")
	var edges [][2]int
	for v := 1; v < n; v++ {
		chain.Tuples = append(chain.Tuples, relation.Tuple{v, v + 1})
		edges = append(edges, [2]int{v, v + 1})
	}
	db := relation.NewDatabase(n)
	db.AddRelation(chain)
	if _, err := srv.Registry().Add("chain", db); err != nil {
		t.Fatal(err)
	}
	want := closurePairs(edges)
	if len(want) != n*(n-1)/2 {
		t.Fatalf("reference closure has %d pairs", len(want))
	}
	gathered := func() int64 { return srv.Metrics().AnswerRowsGathered.Load() }

	before := gathered()
	out, _ := postQuery(t, ts.URL, serve.QueryRequest{Dataset: "chain", Program: tcServeProgram, MaxAnswers: 5})
	shipped := gathered() - before
	if out.AnswerCount != len(want) || !reflect.DeepEqual(out.Answers, want[:5]) || !out.Truncated {
		t.Fatalf("answerCount %d, answers %v (truncated %v); want %d and %v", out.AnswerCount, out.Answers, out.Truncated, len(want), want[:5])
	}
	if shipped < 5 || shipped > 4*5 {
		t.Fatalf("the closure's gather shipped %d rows, want 5 to 20", shipped)
	}

	before = gathered()
	out, _ = postQuery(t, ts.URL, serve.QueryRequest{Dataset: "chain", Program: tcServeProgram, MaxAnswers: -1})
	if out.AnswerCount != len(want) || len(out.Answers) != 0 || gathered() != before {
		t.Fatalf("count only: answerCount %d, %d answers, %d rows gathered; want %d, 0, 0", out.AnswerCount, len(out.Answers), gathered()-before, len(want))
	}
}

// TestDatasetDelete: DELETE /datasets/{name} drops a dataset and returns
// its bytes to the tenant that asks. It is refused with 409 while a
// continuous query is registered on the dataset and with 404 for a name
// not registered. Afterwards GET /datasets does not list the name, a
// delta and a query on it answer 404, and the name registers again as a
// new dataset at version 0: its queries plan afresh and meet none of the
// runs the workers kept of the old one, though the old dataset's third
// query attached to them.
func TestDatasetDelete(t *testing.T) {
	srv := serve.New(serve.Config{WorkerAddrs: startWorkerPool(t, 4), Tenants: []serve.TenantConfig{{Name: "a", Key: "k"}}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ten, _ := srv.Tenants().Get("a")
	call := func(method, path string, body, out any) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	listed := func() []string {
		t.Helper()
		var infos []serve.DatasetInfo
		if code := call(http.MethodGet, "/datasets", nil, &infos); code != http.StatusOK {
			t.Fatalf("GET /datasets: status %d", code)
		}
		var names []string
		for _, info := range infos {
			names = append(names, info.Name)
		}
		return names
	}
	register := func(seed uint64) *relation.Database {
		t.Helper()
		spec := serve.GeneratorSpec{Family: "L3", N: 60, Seed: seed}
		var info serve.DatasetInfo
		if code := call(http.MethodPost, "/datasets", serve.DatasetRequest{Name: "chain", Generator: &spec}, &info); code != http.StatusCreated || info.Version != 0 {
			t.Fatalf("register seed %d: status %d, version %d", seed, code, info.Version)
		}
		db, err := serve.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ten.ResidentBytes(), serve.DatasetBytes(db); got != want {
			t.Fatalf("the tenant holds %d resident bytes, want %d", got, want)
		}
		return db
	}
	// ask runs L3 three times — the third attaches to the runs the workers
	// kept — and checks every reply against db's ground truth.
	ask := func(db *relation.Database) {
		t.Helper()
		truth, err := core.GroundTruth(query.Chain(3), db)
		if err != nil || len(truth) == 0 {
			t.Fatalf("ground truth: %d answers, %v", len(truth), err)
		}
		for i := 0; i < 3; i++ {
			var out serve.QueryResponse
			if code := call(http.MethodPost, "/query", serve.QueryRequest{Dataset: "chain", Family: "L3"}, &out); code != http.StatusOK {
				t.Fatalf("query %d: status %d", i, code)
			}
			if !answersMatch(out.Answers, truth) || out.PlanCached != (i > 0) || (out.ScatterResident > 0) != (i == 2) {
				t.Fatalf("query %d: %d answers (ground truth %d), plan cached %v, %d resident scatters",
					i, len(out.Answers), len(truth), out.PlanCached, out.ScatterResident)
			}
		}
	}

	first := register(1)
	ask(first)
	if code := call(http.MethodPost, "/continuous", serve.ContinuousRequest{Name: "live", Dataset: "chain", Family: "L3"}, nil); code != http.StatusCreated {
		t.Fatalf("register the continuous query: status %d", code)
	}
	if code := call(http.MethodDelete, "/datasets/chain", nil, nil); code != http.StatusConflict {
		t.Fatalf("DELETE under a continuous query: status %d, want 409", code)
	}
	if code := call(http.MethodDelete, "/continuous/live", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE /continuous/live: status %d", code)
	}
	if code := call(http.MethodDelete, "/datasets/chain", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE /datasets/chain: status %d", code)
	}
	if got := ten.ResidentBytes(); got != 0 {
		t.Fatalf("the tenant holds %d resident bytes after the delete, want 0", got)
	}
	if names := listed(); slices.Contains(names, "chain") {
		t.Fatalf("GET /datasets lists %v after the delete", names)
	}
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{http.MethodDelete, "/datasets/chain", nil},
		{http.MethodPost, "/datasets/chain/delta", serve.DeltaRequest{Appends: map[string][][]int{"S1": {{1, 2}}}}},
		{http.MethodPost, "/query", serve.QueryRequest{Dataset: "chain", Family: "L3"}},
		{http.MethodGet, "/datasets/chain", nil},
	} {
		want := http.StatusNotFound
		if c.method == http.MethodGet {
			want = http.StatusMethodNotAllowed
		}
		if code := call(c.method, c.path, c.body, nil); code != want {
			t.Errorf("%s %s after the delete: status %d, want %d", c.method, c.path, code, want)
		}
	}

	second := register(2)
	if names := listed(); !slices.Equal(names, []string{"chain"}) {
		t.Fatalf("GET /datasets lists %v, want [chain]", names)
	}
	ask(second)
}

// twoTenants serves tenants a (key ka) and b (key kb), and returns the
// server and a call that sends a request under a key and returns the
// status and body of the reply.
func twoTenants(t *testing.T) (*serve.Server, func(key, method, path string, body any) (int, string)) {
	srv := serve.New(serve.Config{Tenants: []serve.TenantConfig{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb"}}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, func(key, method, path string, body any) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
}

// TestDatasetOwnedByItsTenant: a dataset belongs to the tenant that
// registered it. Tenant B's delta and DELETE on tenant A's dataset get
// the 404 an unknown name gets, with the same body, and change nothing;
// A's DELETE succeeds and gives A's quota back, not B's.
func TestDatasetOwnedByItsTenant(t *testing.T) {
	srv, call := twoTenants(t)
	a, _ := srv.Tenants().Get("a")
	b, _ := srv.Tenants().Get("b")
	spec := serve.GeneratorSpec{Family: "L3", N: 60, Seed: 1}
	if code, body := call("ka", http.MethodPost, "/datasets", serve.DatasetRequest{Name: "chain", Generator: &spec}); code != http.StatusCreated {
		t.Fatalf("A registers: status %d, %s", code, body)
	}
	db, err := serve.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	booked := serve.DatasetBytes(db)
	if a.ResidentBytes() != booked || b.ResidentBytes() != 0 {
		t.Fatalf("after A's upload A holds %d bytes and B %d, want %d and 0", a.ResidentBytes(), b.ResidentBytes(), booked)
	}
	delta := serve.DeltaRequest{Appends: map[string][][]int{"S1": {{1, 2}}}}
	for _, c := range []struct {
		method, path, unknown string
		body                  any
	}{
		{http.MethodPost, "/datasets/chain/delta", "/datasets/nope/delta", delta},
		{http.MethodDelete, "/datasets/chain", "/datasets/nope", nil},
	} {
		code, body := call("kb", c.method, c.path, c.body)
		_, unknown := call("kb", c.method, c.unknown, c.body)
		if want := strings.ReplaceAll(unknown, `\"nope\"`, `\"chain\"`); code != http.StatusNotFound || body != want {
			t.Errorf("B's %s %s: status %d, body %q; want 404 and %q", c.method, c.path, code, body, want)
		}
	}
	var infos []serve.DatasetInfo
	if code, body := call("ka", http.MethodGet, "/datasets", nil); code != http.StatusOK || json.Unmarshal([]byte(body), &infos) != nil ||
		len(infos) != 1 || infos[0].Name != "chain" || infos[0].Version != 0 {
		t.Fatalf("after B's attempts: status %d, %s; want chain at version 0", code, body)
	}
	if a.ResidentBytes() != booked || b.ResidentBytes() != 0 {
		t.Fatalf("after B's attempts A holds %d bytes and B %d, want %d and 0", a.ResidentBytes(), b.ResidentBytes(), booked)
	}
	if code, body := call("ka", http.MethodPost, "/datasets/chain/delta", delta); code != http.StatusOK {
		t.Fatalf("A's delta: status %d, %s", code, body)
	}
	if code, body := call("ka", http.MethodDelete, "/datasets/chain", nil); code != http.StatusOK {
		t.Fatalf("A's DELETE: status %d, %s", code, body)
	}
	if a.ResidentBytes() != 0 || b.ResidentBytes() != 0 {
		t.Fatalf("after A's DELETE A holds %d bytes and B %d, want 0 and 0", a.ResidentBytes(), b.ResidentBytes())
	}
}

// TestContinuousQueryOwnedByItsTenant: a continuous query belongs to
// the tenant that registered it. Tenant B cannot register one on tenant
// A's dataset, and to B the name of A's query is unknown — the 404 a
// name nobody registered gets, with the same body — and absent from its
// listing; A reads, lists and deletes it.
func TestContinuousQueryOwnedByItsTenant(t *testing.T) {
	_, call := twoTenants(t)
	spec := serve.GeneratorSpec{Family: "L3", N: 60, Seed: 1}
	if code, body := call("ka", http.MethodPost, "/datasets", serve.DatasetRequest{Name: "chain", Generator: &spec}); code != http.StatusCreated {
		t.Fatalf("A registers the dataset: status %d, %s", code, body)
	}
	unknownAs := func(code int, body, unknown, name string) bool {
		return code == http.StatusNotFound && body == strings.ReplaceAll(unknown, `\"nope\"`, `\"`+name+`\"`)
	}
	code, body := call("kb", http.MethodPost, "/continuous", serve.ContinuousRequest{Name: "bq", Dataset: "chain", Family: "L3", P: 4})
	if _, unknown := call("kb", http.MethodPost, "/continuous", serve.ContinuousRequest{Name: "bq", Dataset: "nope", Family: "L3", P: 4}); !unknownAs(code, body, unknown, "chain") {
		t.Fatalf("B registers on A's dataset: status %d, body %q; want the unknown dataset's 404 %q", code, body, unknown)
	}
	if code, body := call("ka", http.MethodPost, "/continuous", serve.ContinuousRequest{Name: "aq", Dataset: "chain", Family: "L3", P: 4}); code != http.StatusCreated {
		t.Fatalf("A registers aq: status %d, %s", code, body)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		code, body := call("kb", method, "/continuous/aq", nil)
		if _, unknown := call("kb", method, "/continuous/nope", nil); !unknownAs(code, body, unknown, "aq") {
			t.Errorf("B's %s /continuous/aq: status %d, body %q; want the unknown name's 404 %q", method, code, body, unknown)
		}
	}
	for key, want := range map[string]int{"ka": 1, "kb": 0} {
		var infos []serve.ContinuousInfo
		code, body := call(key, http.MethodGet, "/continuous", nil)
		if code != http.StatusOK || json.Unmarshal([]byte(body), &infos) != nil || len(infos) != want || want == 1 && infos[0].Name != "aq" {
			t.Errorf("GET /continuous under %s: status %d, %s; want %d queries (aq)", key, code, body, want)
		}
	}
	if code, body := call("ka", http.MethodGet, "/continuous/aq", nil); code != http.StatusOK {
		t.Errorf("A's GET /continuous/aq: status %d, %s", code, body)
	}
	if code, body := call("ka", http.MethodDelete, "/datasets/chain", nil); code != http.StatusConflict || !strings.Contains(body, "aq") {
		t.Errorf("A's DELETE of its dataset under aq: status %d, %s; want 409 naming aq", code, body)
	}
	for _, path := range []string{"/continuous/aq", "/datasets/chain"} {
		if code, body := call("ka", http.MethodDelete, path, nil); code != http.StatusOK {
			t.Errorf("A's DELETE %s: status %d, %s", path, code, body)
		}
	}
}
