package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestRunSelections(t *testing.T) {
	// Small sizes keep this fast; each selection must succeed.
	if err := run(io.Discard, 1, 0, "", false, 100, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, 2, 0, "", false, 100, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, 0, 1, "", false, 100, 1, 2); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"rounds", "round-bounds", "opt-shares", "friedgut"} {
		if err := run(io.Discard, 0, 0, exp, false, 100, 1, 2); err != nil {
			t.Fatalf("experiment %s: %v", exp, err)
		}
	}
}

func TestRunNothingSelected(t *testing.T) {
	if err := run(io.Discard, 0, 0, "", false, 100, 1, 2); err == nil {
		t.Error("want error when nothing is selected")
	}
}

// TestGoldens is the reproduction as a regression net: every selection
// whose output is deterministic at the default flags — 13 of the 15
// experiments (shuffle and wire print timings), both tables and the
// figure — must print its golden file byte for byte. Every one of them
// runs on the same cluster, exchange and worker join the service runs,
// so a change to that machinery that moves a model number (rounds,
// loads, bits, answer fractions) shows here. A golden is regenerated by
// the command the failure prints, and only when the paper's numbers are
// meant to change.
func TestGoldens(t *testing.T) {
	const n, seed, trials = 2000, 2013, 5 // the defaults of main's flags
	type row struct {
		name, flags   string
		table, figure int
		experiment    string
	}
	rows := []row{
		{name: "table1", flags: "-table 1", table: 1},
		{name: "table2", flags: "-table 2", table: 2},
		{name: "figure1", flags: "-figure 1", figure: 1},
	}
	for _, e := range []string{"hc-load", "lb-fraction", "witness", "rounds", "round-bounds", "cc", "skew",
		"delta", "opt-shares", "friedgut", "knowledge", "tail", "recursion"} {
		rows = append(rows, row{name: e, flags: "-experiment " + e, experiment: e})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			golden := "testdata/" + r.name + ".golden"
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, r.table, r.figure, r.experiment, false, n, seed, trials); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from %s (%s); if the paper's numbers are meant to change, regenerate it from the repo root with\n\tgo run ./cmd/mpcbench %s > cmd/mpcbench/%s",
					golden, firstDiff(got.Bytes(), want), r.flags, golden)
			}
		})
	}
}

// firstDiff shows where got leaves want: the first differing line of
// each.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "(identical)"
}
