package main

import "testing"

func TestRunSelections(t *testing.T) {
	// Small sizes keep this fast; each selection must succeed.
	if err := run(1, 0, "", false, 100, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := run(2, 0, "", false, 100, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := run(0, 1, "", false, 100, 1, 2); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"rounds", "round-bounds", "opt-shares", "friedgut"} {
		if err := run(0, 0, exp, false, 100, 1, 2); err != nil {
			t.Fatalf("experiment %s: %v", exp, err)
		}
	}
}

func TestRunNothingSelected(t *testing.T) {
	if err := run(0, 0, "", false, 100, 1, 2); err == nil {
		t.Error("want error when nothing is selected")
	}
}
