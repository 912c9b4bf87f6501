package exchange

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

// sortedWords builds n sorted words with geometric-ish gaps, covering
// runs of equal values (delta 0) and large jumps.
func sortedWords(n int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	words := make([]uint64, n)
	var cur uint64
	for i := range words {
		switch rng.IntN(4) {
		case 0: // repeat
		case 1:
			cur += uint64(rng.IntN(16))
		case 2:
			cur += uint64(rng.IntN(1 << 20))
		default:
			cur += uint64(rng.IntN(1<<30)) << 17
		}
		words[i] = cur
	}
	return words
}

func TestDeltaWordsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4096} {
		words := sortedWords(n, uint64(n)+3)
		enc := AppendDeltaWords(nil, words)
		if got, want := len(enc), DeltaWordsSize(words); got != want {
			t.Fatalf("n=%d: encoded %d bytes, DeltaWordsSize says %d", n, got, want)
		}
		dec, err := DecodeDeltaWords(enc, n)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if n == 0 {
			if len(dec) != 0 {
				t.Fatalf("n=0 decoded %d words", len(dec))
			}
			continue
		}
		if !reflect.DeepEqual(words, dec) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestDeltaWordsExtremes: boundary values survive the codec.
func TestDeltaWordsExtremes(t *testing.T) {
	words := []uint64{0, 0, 1, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64}
	dec, err := DecodeDeltaWords(AppendDeltaWords(nil, words), len(words))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(words, dec) {
		t.Fatalf("got %v, want %v", dec, words)
	}
}

func TestDecodeDeltaWordsRejects(t *testing.T) {
	good := AppendDeltaWords(nil, sortedWords(50, 9))
	cases := []struct {
		name  string
		data  []byte
		count int
		want  string
	}{
		{"truncated", good[:len(good)-1], 50, "varint"},
		{"trailing", append(slices.Clone(good), 0), 50, "trailing"},
		{"count exceeds bytes", good, len(good) + 1, "exceeds"},
		{"count too low leaves trailing", good, 10, "trailing"},
		{"negative count", good, -1, "count"},
		{"nonempty at count zero", good, 0, "trailing"},
		// MaxUint64 then a delta of 1 wraps.
		{"overflow", AppendDeltaWords(AppendDeltaWords(nil, []uint64{math.MaxUint64}), []uint64{1}), 2, "overflow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeDeltaWords(c.data, c.count)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestDecodeDeltaWordsSortedByConstruction: whatever bytes decode
// successfully yield a non-decreasing sequence.
func TestDecodeDeltaWordsSortedByConstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 5))
	for trial := 0; trial < 200; trial++ {
		b := make([]byte, rng.IntN(64))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		count := rng.IntN(len(b) + 1)
		words, err := DecodeDeltaWords(b, count)
		if err != nil {
			continue
		}
		if !slices.IsSorted(words) {
			t.Fatalf("trial %d: decoded unsorted words %v", trial, words)
		}
	}
}

// TestNewBufferFromSortedWords: the wire constructors adopt a run that
// arrives in order and in range — sealed, same storage, nothing moved —
// and refuse every other: they check, they never reorder or repair.
func TestNewBufferFromSortedWords(t *testing.T) {
	src := NewBuffer(3)
	rng := rand.New(rand.NewPCG(13, 2))
	for i := 0; i < 100; i++ {
		src.Append(relation.Tuple{rng.IntN(1000), rng.IntN(1000), rng.IntN(1000)})
	}
	src.Append(relation.Tuple{7, 7, 7})
	src.Append(relation.Tuple{7, 7, 7}) // a sealed run may repeat a tuple
	src.Seal()
	words, _ := src.Words()

	given := slices.Clone(words)
	got, err := relation.NewRunFromWords(3, given)
	if err != nil {
		t.Fatal(err)
	}
	if kept, _ := got.Words(); !got.Sealed() || &kept[0] != &given[0] || !slices.Equal(kept, words) {
		t.Fatal("sorted in-width words were not adopted as they are")
	}
	if !reflect.DeepEqual(got.AppendTuples(nil), src.AppendTuples(nil)) {
		t.Fatal("adopted words decode to different tuples")
	}
	if empty, err := relation.NewRunFromWords(3, nil); err != nil || !empty.Sealed() || empty.Len() != 0 {
		t.Fatalf("empty run: %v, %v", empty, err)
	}

	swapped := slices.Clone(words)
	swapped[10], swapped[90] = swapped[90], swapped[10]
	wide := append(slices.Clone(words), 1<<63) // arity 3 packs 63 bits
	for name, c := range map[string]struct {
		arity int
		words []uint64
		want  string
	}{
		"unsorted":          {3, swapped, "not sorted"},
		"bits above width":  {3, wide, "bits above"},
		"arity 0":           {0, nil, "arity"},
		"unpackable arity":  {65, nil, "does not admit"},
		"lone word too big": {3, []uint64{1 << 63}, "bits above"},
	} {
		before := slices.Clone(c.words)
		if buf, err := relation.NewRunFromWords(c.arity, c.words); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: buffer %v, err %v, want a rejection naming %q", name, buf, err, c.want)
		}
		if !slices.Equal(c.words, before) {
			t.Errorf("%s: the constructor reordered its input", name)
		}
	}

	rows := []int{1, 1 << 50, 3, 1, 1 << 50, 3, 2, 0, 0}
	flat, err := relation.NewRunFromFlat(3, slices.Clone(rows))
	if err != nil || !flat.Sealed() || !slices.Equal(flat.Flat(), rows) {
		t.Fatalf("sorted flat rows: %v, %v", flat, err)
	}
	for name, c := range map[string]struct {
		arity int
		flat  []int
		want  string
	}{
		"unsorted rows":  {3, []int{2, 0, 0, 1, 1 << 50, 3}, "not sorted"},
		"late column":    {3, []int{1, 5, 3, 1, 5, 2}, "not sorted"},
		"negative value": {3, []int{1, 2, 3, 1, -2, 9}, "negative"},
		"ragged":         {3, []int{1, 2, 3, 4}, "multiple"},
		"arity 0":        {0, nil, "arity"},
	} {
		before := slices.Clone(c.flat)
		if buf, err := relation.NewRunFromFlat(c.arity, c.flat); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("flat %s: buffer %v, err %v, want a rejection naming %q", name, buf, err, c.want)
		}
		if !slices.Equal(c.flat, before) {
			t.Errorf("flat %s: the constructor reordered its input", name)
		}
	}
}
