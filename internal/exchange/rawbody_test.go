package exchange_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
	"repro/internal/wire"
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

// shipWords sends the sealed packed run of arity that words spell
// through a wire Data frame and returns the stream and what the Reader
// decodes from it.
func shipWords(t *testing.T, arity int, words []uint64) ([]byte, []uint64) {
	t.Helper()
	run, err := relation.NewRunFromWords(arity, slices.Clone(words))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := wire.NewWriter(&stream).Flush(&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: run}}); err != nil {
		t.Fatal(err)
	}
	sent := slices.Clone(stream.Bytes())
	f, err := wire.NewReader(&stream).Next()
	if err != nil {
		t.Fatal(err)
	}
	got, packed := f.Data.Buf.Words()
	if !packed || f.Data.Buf.Arity() != arity {
		t.Fatalf("decoded arity %d, packed %v; sent arity %d packed", f.Data.Buf.Arity(), packed, arity)
	}
	return sent, got
}

// TestDeltaWordsRoundTrip: a packed run's words cross a Data frame as
// their raw body and arrive as they left.
func TestDeltaWordsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4096} {
		words := sortedWords(n, uint64(n)+3)
		if _, dec := shipWords(t, 2, words); !slices.Equal(words, dec) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestDeltaWordsExtremes: boundary values survive the frame, which costs
// exactly 8 bytes per word.
func TestDeltaWordsExtremes(t *testing.T) {
	words := []uint64{0, 0, 1, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64}
	stream, dec := shipWords(t, 1, words)
	if !slices.Equal(words, dec) {
		t.Fatalf("got %v, want %v", dec, words)
	}
	if empty, _ := shipWords(t, 1, nil); len(stream)-len(empty) != 8*len(words) {
		t.Fatalf("%d words cost %d frame bytes, want %d", len(words), len(stream)-len(empty), 8*len(words))
	}
}

// rawFrame is a Data frame whose arity-2 run claims count words and
// carries body, written by hand as a hostile peer would.
func rawFrame(count uint32, body []byte) []byte {
	p := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 2, 2} // round, dest, "R", no retain key, arity 2, enc 2
	p = binary.BigEndian.AppendUint32(p, count)
	p = append(p, body...)
	return append(binary.BigEndian.AppendUint32([]byte{byte(wire.TypeData)}, uint32(len(p))), p...)
}

// TestDecodeDeltaWordsRejects: a raw body whose count and bytes disagree
// is refused, and no count makes the Reader allocate past what arrived.
func TestDecodeDeltaWordsRejects(t *testing.T) {
	var good []byte
	for _, w := range sortedWords(50, 9) {
		good = binary.LittleEndian.AppendUint64(good, w)
	}
	cases := []struct {
		name  string
		data  []byte
		count uint32
		want  string
	}{
		{"truncated", good[:len(good)-1], 50, "truncated"},
		{"trailing", append(slices.Clone(good), 0), 50, "trailing"},
		{"count exceeds bytes", good, 51, "truncated"},
		{"count too low leaves trailing", good, 10, "trailing"},
		{"negative count", good, 1<<31 | 50, "truncated"},
		{"nonempty at count zero", good, 0, "trailing"},
		{"overflow", good, wire.MaxPayload/8 + 1, "truncated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := wire.NewReader(bytes.NewReader(rawFrame(c.count, c.data))).Next()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestDecodeDeltaWordsSortedByConstruction: whatever raw body decodes
// yields a non-decreasing run.
func TestDecodeDeltaWordsSortedByConstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 5))
	for trial := 0; trial < 200; trial++ {
		count := rng.IntN(4)
		body := make([]byte, 8*count)
		for i := range body {
			body[i] = byte(rng.Uint32())
		}
		if trial%2 == 0 { // small words, so that some bodies are in order
			for i := 1; i < len(body); i++ {
				if i%8 != 0 {
					body[i] = 0
				}
			}
		}
		f, err := wire.NewReader(bytes.NewReader(rawFrame(uint32(count), body))).Next()
		if err != nil {
			continue
		}
		if words, _ := f.Data.Buf.Words(); !slices.IsSorted(words) {
			t.Fatalf("trial %d: decoded unsorted words %v", trial, words)
		}
	}
}

// TestNewBufferFromSortedWords: the wire constructors adopt a run that
// arrives in order and in range — sealed, same storage, nothing moved —
// and refuse every other: they check, they never reorder or repair.
func TestNewBufferFromSortedWords(t *testing.T) {
	src := exchange.NewBuffer(3)
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
