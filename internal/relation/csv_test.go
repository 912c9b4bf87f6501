package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	in := "x,y\n3,4\n1,2\n"
	rel, err := ReadCSV([]byte(in), "R")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Name != "R" || rel.Arity() != 2 || rel.Size() != 2 {
		t.Fatalf("rel = %v", rel)
	}
	if rel.Tuples != nil {
		t.Errorf("ReadCSV filled Tuples; the relation is its run")
	}
	if got := rel.Rows(); len(got) != 2 || !got[0].Equal(Tuple{1, 2}) || !got[1].Equal(Tuple{3, 4}) {
		t.Errorf("rows = %v, want the file's rows sorted", got)
	}
	inOrder, err := ReadCSVTuples([]byte(in), "R")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inOrder.Tuples, []Tuple{{3, 4}, {1, 2}}) {
		t.Errorf("ReadCSVTuples = %v, want file order", inOrder.Tuples)
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
		if _, err := ReadCSV([]byte(in), "R"); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}

// TestReadCSVChunkedTuples reads a file of thousands of rows both ways:
// the header survives, ReadCSV's run holds every row, ReadCSVTuples'
// tuples — carved from one backing array — cannot grow into each other,
// and an error deep in the file still names its line and field.
func TestReadCSVChunkedTuples(t *testing.T) {
	const rows = 3*1024 + 7
	var sb strings.Builder
	sb.WriteString("first,second,third\n")
	for i := rows; i >= 1; i-- { // descending: the run must sort it
		fmt.Fprintf(&sb, "%d, %d,%d\n", i, 2*i, 3*i)
	}
	rel, err := ReadCSV([]byte(sb.String()), "R")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "second", "third"}; !slices.Equal(rel.Attrs, want) {
		t.Fatalf("attrs = %v, want %v", rel.Attrs, want)
	}
	if rel.Size() != rows {
		t.Fatalf("%d tuples, want %d", rel.Size(), rows)
	}
	for i, tup := range rel.Rows() {
		if !tup.Equal(Tuple{i + 1, 2 * (i + 1), 3 * (i + 1)}) {
			t.Fatalf("row %d = %v", i, tup)
		}
	}
	inOrder, err := ReadCSVTuples([]byte(sb.String()), "R")
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range inOrder.Tuples {
		_ = append(tup, -1) // must reallocate, not write the next tuple's first cell
	}
	for i, tup := range inOrder.Tuples {
		if v := rows - i; !tup.Equal(Tuple{v, 2 * v, 3 * v}) {
			t.Fatalf("tuple %d = %v", i, tup)
		}
	}
	sb.WriteString("5,x,6\n")
	_, err = ReadCSV([]byte(sb.String()), "R")
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
	text := buf.String()
	back, err := ReadCSVTuples([]byte(text), "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Tuples, orig.Tuples) {
		t.Fatalf("round trip: %v != %v", back.Tuples, orig.Tuples)
	}
	if !back.IsMatching(30) {
		t.Error("round-tripped matching should still be a matching")
	}
	run, err := ReadCSV([]byte(text), "S")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run.Rows(), RunOf(3, orig.Tuples).Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("run round trip: %v != %v", got, want)
	}
	if !run.IsMatching(30) {
		t.Error("a run-backed matching should still be a matching")
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
	r.Run()
	if r.MaxValue() != 9 {
		t.Errorf("MaxValue off the run = %d, want 9", r.MaxValue())
	}
	wide := FromRun("W", []string{"x", "y"}, RunOf(2, []Tuple{{1 << 40, 3}, {2, 5}}))
	if got := wide.MaxValue(); got != 1<<40 {
		t.Errorf("MaxValue of a flat run = %d, want 2^40", got)
	}
}

// refReadCSV is the parent tree's reader — encoding/csv with
// TrimLeadingSpace, strconv.Atoi per field, rows in file order — kept
// as the reference FuzzReadCSV holds the byte scanner to.
func refReadCSV(r io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	rel := New(name, header...)
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(record) != len(header) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, header has %d", line, len(record), len(header))
		}
		t := make(Tuple, len(record))
		for i, field := range record {
			v, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d field %d: %w", line, i+1, err)
			}
			if v < 1 {
				return nil, fmt.Errorf("relation: CSV line %d field %d: value %d outside domain [n]", line, i+1, v)
			}
			t[i] = v
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel, nil
}

var csvFieldError = regexp.MustCompile(`CSV line \d+ field \d+`)

// FuzzReadCSV holds ReadCSV and ReadCSVTuples to the reference: the same
// header, the same multiset of rows — in the file's order for
// ReadCSVTuples, the adapter serve.DatabaseFromCSV reads with — or an
// error from all three, naming the same line and field when the
// reference's does.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"x,y\n1,2\n3,4\n",
		"x,y\n\"1\",\"2\"\n\"3\",4\n", // quoted fields
		"\"a,b\",\"c\"\"d\"\n1,2\n",   // a comma and an escaped quote in the header
		"\"x\ny\",z\n1,2\n",           // a header field across a line end
		"x,y\n\"1\"x,2\n",             // text after a closing quote
		"x,y\n1\",2\n",                // a bare quote
		"x,y\n\"1,2\n",                // a quote never closed
		"x,y\r\n1,2\r\n3,4\r\n",       // CRLF
		"x,y\r\n1,2\r",                // a CR ending the input
		"\n\nx,y\n\n1,2\n\n\n3,4\n\n", // blank lines
		"x, y\n 1,\t2\n\v3, \f4\n",    // leading spaces and tabs
		"x,y\n\u00a01,\u20032\n",      // leading Unicode spaces
		"x,y\n1,2,\n",                 // a trailing comma
		"x,y\n+5,007\n",               // a sign, leading zeros
		"x,y\n12345678901234567890,1\n",
		"x,y\n-0,1\n",
		"\ufeffx,y\n1,2\n", // a BOM
		"x,y\n1,2",         // no final newline
		"x,y\n",            // header only
		"x,y",
		"x,y\n5,5\n5,5\n1,1\n5,5\n", // duplicate rows
		"x,y\n4294967296,1\n1,1\n",  // ≥ 2³²: no packing at arity 2
		"x\n9223372036854775807\n",
		"x,y\n  \n1,2\n",
		"x,y\n\"\",1\n",
		"x,y\n1,\"2\"\n",
		"x,y\n1,\"2\" \n",
		"",
		// The edges of the plain-record path: 18 and 19 digits, a zero
		// however spelled, a space beside a comma or before the line end,
		// a CR ending a record, no final newline, and a value ≥ 2³² at
		// arity 2 after packed rows, so the run migrates to flat storage
		// midway.
		"x,y\n123456789012345678,1\n",
		"x,y\n1234567890123456789,1\n",
		"x,y\n0,1\n",
		"x,y\n00,1\n",
		"x,y\n1 ,2\n",
		"x,y\n1,2 \n",
		"x,y\n1,2\r3,4\n",
		"x,y\n1,2\n3,4\r",
		"x,y\n1,2\n3,4",
		"x,y\n1,2\n3,4\n4294967296,5\n6,7\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ref, refErr := refReadCSV(strings.NewReader(text), "R")
		run, runErr := ReadCSV([]byte(text), "R")
		tup, tupErr := ReadCSVTuples([]byte(text), "R")
		for _, err := range []error{runErr, tupErr} {
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%q: error %v, reference %v", text, err, refErr)
			}
			if want := csvFieldError.FindString(fmt.Sprint(refErr)); want != "" && !strings.Contains(err.Error(), want) {
				t.Fatalf("%q: error %v, want one naming %q", text, err, want)
			}
		}
		if refErr != nil {
			return
		}
		if !slices.Equal(run.Attrs, ref.Attrs) || !slices.Equal(tup.Attrs, ref.Attrs) {
			t.Fatalf("%q: headers %q / %q, reference %q", text, run.Attrs, tup.Attrs, ref.Attrs)
		}
		if len(ref.Tuples) > 0 && !reflect.DeepEqual(tup.Tuples, ref.Tuples) || len(tup.Tuples) != len(ref.Tuples) {
			t.Fatalf("%q: file-order rows %v, reference %v", text, tup.Tuples, ref.Tuples)
		}
		want := slices.Clone(ref.Tuples)
		slices.SortFunc(want, Tuple.Compare)
		if got := run.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: run rows %v, reference sorted %v", text, got, want)
		}
	})
}
