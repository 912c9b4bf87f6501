package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/serve"
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
// or a fallback to in-process execution.
func TestWorkerPoolUnavailable(t *testing.T) {
	// Reserve an address and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, ts := newTestServer(t, serve.Config{WorkerAddrs: []string{dead}}, 60)
	body := strings.NewReader(`{"dataset":"tri","family":"C3"}`)
	resp, err := http.Post(ts.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

// meteredWorker is a worker listener that counts the bytes every
// session reads and can cut one chosen session off after a byte budget
// — the deterministic stand-in for a process dying mid-query: what the
// coordinator streams to a worker is a function of the program, the
// data and the seed, so "session k dies b bytes in" is the same point
// of the execution on every run, however TCP segments the stream.
type meteredWorker struct {
	mu sync.Mutex
	// read holds one byte counter per accepted session, in accept order.
	read []*atomic.Int64
	// cut is the session index to cut off after budget bytes; -1 cuts
	// none.
	cut    int
	budget int64
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
	w := &meteredWorker{cut: -1}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			w.mu.Lock()
			mc := &meteredConn{Conn: c, read: new(atomic.Int64), budget: -1}
			if len(w.read) == w.cut {
				mc.budget = w.budget
			}
			w.read = append(w.read, mc.read)
			w.mu.Unlock()
			go func() {
				defer c.Close()
				_ = dist.ServeConn(ctx, mc)
			}()
		}
	}()
	return w, ln.Addr().String()
}

// sessionBytes returns what session i has read so far.
func (w *meteredWorker) sessionBytes(i int) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.read[i].Load()
}

// cutSession arranges for the i-th accepted session to lose its
// connection after reading budget bytes.
func (w *meteredWorker) cutSession(i int, budget int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cut, w.budget = i, budget
}

// meteredConn counts the bytes read through it and, given a budget ≥ 0,
// closes the connection once exactly that many have been read.
type meteredConn struct {
	net.Conn
	read   *atomic.Int64
	budget int64
}

// Read implements net.Conn.
func (c *meteredConn) Read(b []byte) (int, error) {
	if c.budget >= 0 {
		left := c.budget - c.read.Load()
		if left <= 0 {
			c.Conn.Close()
			return 0, io.EOF
		}
		b = b[:min(int64(len(b)), left)]
	}
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
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
		return [3]int64{m.ScatterHits.Load(), m.ScatterMisses.Load(), m.ScatterRetained.Load()}
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
	for _, want := range []string{"mpcserve_scatter_resident_hits_total 3\n", "mpcserve_scatter_resident_misses_total 0\n", "mpcserve_scatter_resident_retained_total "} {
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
