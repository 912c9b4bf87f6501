package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestMain lets the test binary stand in for the mpcserve binary: with
// MPCSERVE_TEST_MAIN set it runs main on the remaining arguments, so the
// termination test below signals a real process.
func TestMain(m *testing.M) {
	if os.Getenv("MPCSERVE_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"p zero", func() error { _, err := build(0, 1024, 0, 8, 0, 8, 10, "", "", 0, nil, nil, nil); return err }},
		{"p negative", func() error { _, err := build(-2, 1024, 0, 8, 0, 8, 10, "", "", 0, nil, nil, nil); return err }},
		{"max-p below p", func() error { _, err := build(64, 8, 0, 8, 0, 8, 10, "", "", 0, nil, nil, nil); return err }},
		{"no workers", func() error { _, err := build(8, 64, 0, 0, 0, 8, 10, "", "", 0, nil, nil, nil); return err }},
		{"no cache", func() error { _, err := build(8, 64, 0, 8, 0, 0, 10, "", "", 0, nil, nil, nil); return err }},
		{"spares without workers", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "localhost:9009", 0, nil, nil, nil)
			return err
		}},
		{"bad dataset spec", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, []string{"noname"}, nil, nil)
			return err
		}},
		{"missing csv file", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, []string{"d:R=/does/not/exist.csv"}, nil, nil)
			return err
		}},
		{"bad gen spec", func() error { _, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, []string{"tri"}, nil); return err }},
		{"gen unknown key", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, []string{"tri:warp=1"}, nil)
			return err
		}},
		{"gen zero n", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, []string{"tri:family=C3,n=0"}, nil)
			return err
		}},
		{"gen unknown kind", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, []string{"tri:family=C3,n=10,kind=warp"}, nil)
			return err
		}},
		{"duplicate dataset name", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil,
				[]string{"tri:family=C3,n=10", "tri:family=C3,n=20"}, nil)
			return err
		}},
		{"tenant no key", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, nil, []string{"acme:qps=2"})
			return err
		}},
		{"tenant bad value", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, nil, []string{"acme:key=k,qps=fast"})
			return err
		}},
		{"tenant unknown key", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, nil, []string{"acme:key=k,warp=1"})
			return err
		}},
		{"tenant duplicate key", func() error {
			_, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil, nil,
				[]string{"acme:key=k", "biz:key=k"})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.err(); err == nil {
				t.Errorf("want error, got nil")
			}
		})
	}
}

func TestBuildPreloadsAndServes(t *testing.T) {
	// One generated dataset plus one loaded from a CSV file on disk.
	dir := t.TempDir()
	path := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(path, []byte("x,y\n1,2\n2,3\n3,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0,
		[]string{"edges:R=" + path},
		[]string{"tri:family=C3,n=50,seed=3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := srv.Registry().Names()
	if len(names) != 2 || names[0] != "edges" || names[1] != "tri" {
		t.Fatalf("registry names = %v", names)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// L2 joins two of the matchings: exactly n answers, always.
	body, _ := json.Marshal(serve.QueryRequest{Dataset: "tri", Family: "L2"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.AnswerCount != 50 || out.Engine == "" {
		t.Fatalf("want 50 answers and an engine, got: %+v", out)
	}
}

func TestBuildMultiTenant(t *testing.T) {
	srv, err := build(8, 64, 0, 8, 0, 8, 10, "", "", 0, nil,
		[]string{"tri:family=C3,n=50,seed=3"},
		[]string{"acme:key=ka,qps=2,burst=3,load=100000,bytes=1048576", "biz:key=kb"})
	if err != nil {
		t.Fatal(err)
	}
	ten, ok := srv.Tenants().Get("acme")
	if !ok {
		t.Fatal("tenant acme not registered")
	}
	if cfg := ten.Config(); cfg.QPS != 2 || cfg.Burst != 3 || cfg.MaxInFlightLoad != 100000 || cfg.MaxResidentBytes != 1048576 {
		t.Fatalf("acme config = %+v", cfg)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(serve.QueryRequest{Dataset: "tri", Family: "L2"})

	// No key: 401. Valid key: 200 with the tenant echoed.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated POST /query: status %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer kb")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated POST /query: status %d, want 200", resp.StatusCode)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "biz" || out.QueryID == "" {
		t.Fatalf("response tenant %q, queryID %q", out.Tenant, out.QueryID)
	}

	// The operator surface stays open.
	for _, path := range []string{"/healthz", "/metrics", "/ops", "/ui", "/trace"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, r2.StatusCode)
		}
	}
}

func TestGenerateDatasetZipf(t *testing.T) {
	name, db, err := generateDataset("skewed:query=R(x,y),S(y,z),n=200,seed=2,kind=zipf,skew=1.3")
	if err != nil {
		t.Fatal(err)
	}
	if name != "skewed" {
		t.Fatalf("name = %q", name)
	}
	r, ok := db.Relation("R")
	if !ok || r.Size() != 200 {
		t.Fatalf("R missing or wrong size")
	}
}

// TestSlowHeadersAreDisconnected: a client that never finishes its
// request headers does not hold a connection open.
func TestSlowHeadersAreDisconnected(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("server timeouts %v / %v, want the constants", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout = 50 * time.Millisecond // the constant, shortened for the test
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveHTTP(ctx, hs, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a connection with unfinished headers: %v, want the server to have closed it", err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serveHTTP: %v", err)
	}
}

// TestShutdownDrainsRequestsInFlight: when the context a termination
// signal cancels is done, the listener closes at once, the request
// already admitted still gets its reply, and only then serveHTTP returns.
func TestShutdownDrainsRequestsInFlight(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "answered")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveHTTP(ctx, newHTTPServer(h), ln) }()
	type reply struct {
		code int
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/query", "application/json", strings.NewReader("{}"))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, string(body), err}
	}()
	<-started
	cancel()
	// Shutdown closes the listener first: wait until a dial is refused.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after the context was cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("serveHTTP returned (%v) with a request in flight", err)
	default:
	}
	close(release)
	if r := <-got; r.err != nil || r.code != http.StatusOK || r.body != "answered" {
		t.Fatalf("the request in flight got %+v, want its 200", r)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveHTTP after draining: %v", err)
	}
}

// TestSIGTERMFinishesRunningQuery: a real mpcserve process that gets
// SIGTERM while a /query executes answers that query with 200 and then
// exits 0.
func TestSIGTERMFinishesRunningQuery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-addr", addr, "-p", "8", "-gen", "tri:family=C3,n=150000,seed=3")
	cmd.Env = append(os.Environ(), "MPCSERVE_TEST_MAIN=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	if line, err := bufio.NewReader(out).ReadString('\n'); err != nil || !strings.Contains(line, "listening") {
		t.Fatalf("start-up line %q: %v", line, err)
	}
	type reply struct {
		code int
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/query", "application/json",
			strings.NewReader(`{"dataset":"tri","family":"C3","maxAnswers":-1}`))
		if err != nil {
			got <- reply{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- reply{code: resp.StatusCode}
	}()
	// The query is in flight once the service counts it; the signal lands
	// while it executes (a cold plan over 450 000 tuples).
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), "mpcserve_queries_in_flight 1") {
				break
			}
		}
		select {
		case r := <-got:
			t.Skipf("the query finished (%+v) before it was seen in flight", r)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("query never seen in flight")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("the running query got %+v after SIGTERM, want its 200", r)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("mpcserve after SIGTERM: %v, want exit 0", err)
	}
}
