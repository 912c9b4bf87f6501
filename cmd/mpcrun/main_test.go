package main

import (
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dist"
)

// TestRunDistributed drives the -workers path end to end against an
// in-process TCP worker pool (the exact cmd/mpcworker serving code).
func TestRunDistributed(t *testing.T) {
	if err := run("", "C3", 150, 8, "", 1, 0, 0, "", "", startWorkers(t, 2), "", 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplacesDeadMemberAtDial: a member whose address nobody listens
// on any more when the run dials is replaced by the -spares worker, and
// the run answers its ground truth.
func TestRunReplacesDeadMemberAtDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	live := strings.Split(startWorkers(t, 2), ",")
	out := stdout(t, func() error {
		return run("", "C3", 150, 8, "", 1, 0, 0, "", "", live[0]+","+dead, live[1], 0)
	})
	if m := regexp.MustCompile(`answers: (\d+) / (\d+) ground truth`).FindStringSubmatch(out); m == nil || m[1] != m[2] {
		t.Fatalf("no ground-truth answer line in:\n%s", out)
	}
	if !strings.Contains(out, "repaired: 1 dead worker(s) replaced by spares at the dial") {
		t.Errorf("the run does not report the repair:\n%s", out)
	}
}

// stdout returns what fn prints, and fails the test if fn fails.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	err = fn()
	os.Stdout = saved
	w.Close()
	out := string(<-read)
	if err != nil {
		t.Fatalf("%v; output:\n%s", err, out)
	}
	return out
}

// startWorkers serves n in-process TCP workers for the test's lifetime
// and returns their addresses as a -workers value.
func startWorkers(t *testing.T, n int) string {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		go dist.Serve(ctx, ln)
	}
	return strings.Join(addrs, ",")
}

func TestRunAutoMode(t *testing.T) {
	// Planner-driven default on a cyclic and an acyclic family.
	if err := run("", "C3", 200, 8, "", 1, 0, 2, "", "", "", "", 0); err != nil {
		t.Fatal(err)
	}
	if err := run("", "L3", 100, 8, "", 1, 0, 0, "", "", "", "", 0); err != nil {
		t.Fatal(err)
	}
	// Fixed ε that forces the multiround engine.
	if err := run("", "L4", 100, 16, "0", 1, 0, 0, "", "", "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlanOverrides(t *testing.T) {
	if err := run("", "C3", 100, 27, "", 1, 0, 0, "", "shares=x1:3,x2:3,x3:3", "", "", 0); err != nil {
		t.Fatal(err)
	}
	if err := run("", "C3", 100, 27, "", 1, 0, 0, "", "engine=multi", "", "", 0); err != nil {
		t.Fatal(err)
	}
	if err := run("q(x,y,z) = R(x,y), S(y,z)", "", 100, 8, "", 1, 0, 0, "", "engine=skew", "", "", 0); err != nil {
		t.Fatal(err)
	}
	// Invalid overrides.
	for _, bad := range []string{
		"engine=warp",                         // unknown engine
		"shares=x1:3",                         // missing variables
		"shares=x1:0,x2:3",                    // bad dimension
		"gibberish",                           // not key=value
		"zzz=1",                               // unknown key
		"engine=multi;shares=x1:27,x2:1,x3:1", // conflicting
		"engine=skew;shares=x1:27,x2:1,x3:1",  // conflicting
	} {
		if err := run("", "C3", 50, 27, "", 1, 0, 0, "", bad, "", "", 0); err == nil {
			t.Errorf("-plan %q: want error", bad)
		}
	}
}

func TestRunOneRoundMode(t *testing.T) {
	if err := run("", "C3", 200, 8, "", 1, 0, 2, "", "engine=one", "", "", 0); err != nil {
		t.Fatal(err)
	}
	// Explicit epsilon.
	if err := run("", "L3", 100, 8, "1/2", 1, 0, 0, "", "engine=one", "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiMode(t *testing.T) {
	if err := run("", "L4", 80, 8, "0", 1, 0, 1, "", "engine=multi", "", "", 0); err != nil {
		t.Fatal(err)
	}
	if err := run("", "L16", 50, 8, "1/2", 1, 0, 0, "", "engine=multi", "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", 10, 4, "", 1, 0, 0, "", "", "", "", 0); err == nil {
		t.Error("want error: no query")
	}
	if err := run("R(x)", "L2", 10, 4, "", 1, 0, 0, "", "", "", "", 0); err == nil {
		t.Error("want error: both query and family")
	}
	if err := run("", "L2", 10, 4, "nope", 1, 0, 0, "", "engine=one", "", "", 0); err == nil {
		t.Error("want error: bad epsilon")
	}
	if err := run("", "L2", 10, 4, "3/2", 1, 0, 0, "", "", "", "", 0); err == nil {
		t.Error("want error: epsilon out of range")
	}
	if err := run("", "L2", 10, 4, "nope", 1, 0, 0, "", "", "", "", 0); err == nil {
		t.Error("want error: bad epsilon without an override")
	}
}

func TestRunWithCSVData(t *testing.T) {
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.csv")
	sPath := filepath.Join(dir, "s.csv")
	if err := os.WriteFile(rPath, []byte("x,y\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sPath, []byte("y,z\n2,5\n4,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data := "R=" + rPath + ",S=" + sPath
	// Planner-driven over CSV data.
	if err := run("q(x,y,z) = R(x,y), S(y,z)", "", 0, 4, "", 1, 0, 10, data, "", "", "", 0); err != nil {
		t.Fatal(err)
	}
	if err := run("q(x,y,z) = R(x,y), S(y,z)", "", 0, 4, "1/2", 1, 0, 10, data, "engine=one", "", "", 0); err != nil {
		t.Fatal(err)
	}
	// Missing relation in -data.
	if err := run("q(x,y,z) = R(x,y), S(y,z)", "", 0, 4, "", 1, 0, 0, "R="+rPath, "", "", "", 0); err == nil {
		t.Error("want error: S missing from -data")
	}
	// Malformed pair.
	if err := run("q(x,y) = R(x,y)", "", 0, 4, "", 1, 0, 0, "R", "", "", "", 0); err == nil {
		t.Error("want error: malformed -data")
	}
	// Nonexistent file.
	if err := run("q(x,y) = R(x,y)", "", 0, 4, "", 1, 0, 0, "R="+filepath.Join(dir, "nope.csv"), "", "", "", 0); err == nil {
		t.Error("want error: missing file")
	}
	// Arity mismatch.
	if err := run("q(x,y,z) = R(x,y,z)", "", 0, 4, "", 1, 0, 0, "R="+rPath, "", "", "", 0); err == nil {
		t.Error("want error: arity mismatch")
	}
}

func TestParseShares(t *testing.T) {
	s, err := parseShares("x:4,y:2")
	if err != nil || len(s.Vars) != 2 || s.Dims[0] != 4 || s.Dims[1] != 2 {
		t.Fatalf("parseShares = %v, %v", s, err)
	}
	for _, bad := range []string{"", "x", "x:", ":3", "x:zero", "x:-1"} {
		if _, err := parseShares(bad); err == nil {
			t.Errorf("parseShares(%q): want error", bad)
		}
	}
}

// TestRunFlagValidation checks the hard rejections: non-positive -p
// and -n, empty queries, and unknown engine names must produce a clear
// error (the CLI turns it into a non-zero exit), never a panic or a
// silent default.
func TestRunFlagValidation(t *testing.T) {
	const tc = "tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z)."
	cases := []struct {
		name string
		err  func() error
	}{
		// A live pool, so only the flag check can fail the run.
		{"datalog with max-replace", func() error {
			err := run(tc, "", 30, 2, "", 1, 0, 0, "", "", startWorkers(t, 2), "", 1)
			if err != nil && !strings.Contains(err.Error(), "a Datalog -query supports only") {
				t.Errorf("rejected for the wrong reason: %v", err)
			}
			return err
		}},
		{"datalog with max-replace and no workers", func() error { return run(tc, "", 30, 2, "", 1, 0, 0, "", "", "", "", 1) }},
		{"p zero", func() error { return run("", "C3", 100, 0, "", 1, 0, 0, "", "", "", "", 0) }},
		{"p negative", func() error { return run("", "C3", 100, -4, "", 1, 0, 0, "", "", "", "", 0) }},
		{"n zero", func() error { return run("", "C3", 0, 8, "", 1, 0, 0, "", "", "", "", 0) }},
		{"empty query", func() error { return run("", "", 100, 8, "", 1, 0, 0, "", "", "", "", 0) }},
		{"both query and family", func() error { return run("R(x,y)", "C3", 100, 8, "", 1, 0, 0, "", "", "", "", 0) }},
		{"unparsable query", func() error { return run("R(x,", "", 100, 8, "", 1, 0, 0, "", "", "", "", 0) }},
		{"unknown family", func() error { return run("", "Q9", 100, 8, "", 1, 0, 0, "", "", "", "", 0) }},
		{"unknown plan engine", func() error { return run("", "C3", 100, 8, "", 1, 0, 0, "", "engine=warp", "", "", 0) }},
		{"bad eps", func() error { return run("", "C3", 100, 8, "2", 1, 0, 0, "", "", "", "", 0) }},
		{"empty worker address", func() error {
			return run("", "C3", 100, 8, "", 1, 0, 0, "", "", "localhost:9001,,localhost:9002", "", 0)
		}},
		{"unreachable workers", func() error { return run("", "C3", 50, 8, "", 1, 0, 0, "", "", "127.0.0.1:1", "", 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.err(); err == nil {
				t.Errorf("want error, got nil")
			}
		})
	}
}
