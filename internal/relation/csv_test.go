package relation

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	in := "x,y\n1,2\n3,4\n"
	rel, err := ReadCSV(strings.NewReader(in), "R")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Name != "R" || rel.Arity() != 2 || rel.Size() != 2 {
		t.Fatalf("rel = %v", rel)
	}
	if !rel.Tuples[1].Equal(Tuple{3, 4}) {
		t.Errorf("tuple = %v", rel.Tuples[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"",            // no header
		"x,y\n1\n",    // field count mismatch — csv pkg errors
		"x,y\n1,a\n",  // non-integer
		"x,y\n0,2\n",  // out of domain
		"x,y\n-1,2\n", // negative
	}
	for _, in := range bad {
		if _, err := ReadCSV(strings.NewReader(in), "R"); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}

// TestReadCSVChunkedTuples reads past several tuple chunks: the header
// survives the reader's record reuse, tuples carved from one backing
// array cannot grow into each other, and an error deep in the file
// still names its line and field.
func TestReadCSVChunkedTuples(t *testing.T) {
	const rows = 3*csvChunkRows + 7
	var sb strings.Builder
	sb.WriteString("first,second,third\n")
	for i := 1; i <= rows; i++ {
		fmt.Fprintf(&sb, "%d, %d,%d\n", i, 2*i, 3*i)
	}
	rel, err := ReadCSV(strings.NewReader(sb.String()), "R")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "second", "third"}; !slices.Equal(rel.Attrs, want) {
		t.Fatalf("attrs = %v, want %v", rel.Attrs, want)
	}
	if rel.Size() != rows {
		t.Fatalf("%d tuples, want %d", rel.Size(), rows)
	}
	for _, tup := range rel.Tuples {
		_ = append(tup, -1) // must reallocate, not write the next tuple's first cell
	}
	for i, tup := range rel.Tuples {
		if !tup.Equal(Tuple{i + 1, 2 * (i + 1), 3 * (i + 1)}) {
			t.Fatalf("tuple %d = %v", i, tup)
		}
	}
	sb.WriteString("5,x,6\n")
	_, err = ReadCSV(strings.NewReader(sb.String()), "R")
	if want := fmt.Sprintf("CSV line %d field 2", rows+2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one naming %q", err, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	orig := Matching(rng, "S", []string{"a", "b", "c"}, 30)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "S")
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != orig.Size() || back.Arity() != orig.Arity() {
		t.Fatalf("round trip shape mismatch")
	}
	for i := range orig.Tuples {
		if !back.Tuples[i].Equal(orig.Tuples[i]) {
			t.Fatalf("tuple %d: %v != %v", i, back.Tuples[i], orig.Tuples[i])
		}
	}
	if !back.IsMatching(30) {
		t.Error("round-tripped matching should still be a matching")
	}
}

func TestMaxValue(t *testing.T) {
	r := New("R", "x", "y")
	if r.MaxValue() != 0 {
		t.Error("empty relation max should be 0")
	}
	r.MustAdd(Tuple{3, 9})
	r.MustAdd(Tuple{7, 2})
	if r.MaxValue() != 9 {
		t.Errorf("MaxValue = %d, want 9", r.MaxValue())
	}
}
