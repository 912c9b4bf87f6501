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

// shipWords sends the sealed one-word-a-row run of arity that words
// spell through a wire Data frame and returns the stream and what the
// Reader decodes from it.
func shipWords(t *testing.T, arity int, words []uint64) ([]byte, []uint64) {
	t.Helper()
	run, err := relation.NewRunFromWords(arity, 1, slices.Clone(words))
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
	if buf := f.Data.Buf; buf.Stride() != 1 || buf.Arity() != arity {
		t.Fatalf("decoded arity %d at %d words a row; sent arity %d at one", buf.Arity(), buf.Stride(), arity)
	}
	return sent, f.Data.Buf.Words()
}

// TestDeltaWordsRoundTrip: a run's words cross a Data frame as their raw
// body and arrive as they left.
func TestDeltaWordsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4096} {
		words := sortedWords(n, uint64(n)+3)
		if _, dec := shipWords(t, 2, words); !slices.Equal(words, dec) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestDeltaWordsExtremes: boundary values survive the frame, which costs
// exactly 8 bytes per word — the codes of 0 and math.MaxInt in an arity-1
// run's 64-bit field.
func TestDeltaWordsExtremes(t *testing.T) {
	words := []uint64{1 << 63, 1 << 63, 1<<63 | 1, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64}
	stream, dec := shipWords(t, 1, words)
	if !slices.Equal(words, dec) {
		t.Fatalf("got %v, want %v", dec, words)
	}
	if empty, _ := shipWords(t, 1, nil); len(stream)-len(empty) != 8*len(words) {
		t.Fatalf("%d words cost %d frame bytes, want %d", len(words), len(stream)-len(empty), 8*len(words))
	}
}

// rawFrame is a Data frame whose arity-2 run of one word a row claims
// count rows and carries body, written by hand as a hostile peer would.
func rawFrame(count uint32, body []byte) []byte {
	p := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 2, 2, 1} // round, dest, "R", no view, no retain key, append, arity 2, enc 2, stride 1
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
		if words := f.Data.Buf.Words(); !slices.IsSorted(words) {
			t.Fatalf("trial %d: decoded unsorted words %v", trial, words)
		}
	}
}

// TestNewBufferFromSortedWords: the wire constructor adopts a run that
// arrives in order and in range — sealed, same storage, nothing moved —
// at one word a row and wider, and refuses every other: it checks, it
// never reorders or repairs.
func TestNewBufferFromSortedWords(t *testing.T) {
	src := exchange.NewBuffer(3)
	rng := rand.New(rand.NewPCG(13, 2))
	for i := 0; i < 100; i++ {
		src.Append(relation.Tuple{rng.IntN(1000), rng.IntN(1000), rng.IntN(1000)})
	}
	src.Append(relation.Tuple{7, 7, 7})
	src.Append(relation.Tuple{7, 7, 7}) // a sealed run may repeat a tuple
	src.Seal()
	words := src.Words()

	given := slices.Clone(words)
	got, err := relation.NewRunFromWords(3, 1, given)
	if err != nil {
		t.Fatal(err)
	}
	if kept := got.Words(); !got.Sealed() || &kept[0] != &given[0] || !slices.Equal(kept, words) {
		t.Fatal("sorted in-width words were not adopted as they are")
	}
	if !reflect.DeepEqual(got.AppendTuples(nil), src.AppendTuples(nil)) {
		t.Fatal("adopted words decode to different tuples")
	}
	if empty, err := relation.NewRunFromWords(3, 1, nil); err != nil || !empty.Sealed() || empty.Len() != 0 {
		t.Fatalf("empty run: %v, %v", empty, err)
	}

	// Rows of three 64-bit fields: (1, 2⁵⁰, 3) twice, then (2, 0, 0).
	const s = 1 << 63
	rows := []uint64{s | 1, s | 1<<50, s | 3, s | 1, s | 1<<50, s | 3, s | 2, s, s}
	wide, err := relation.NewRunFromWords(3, 3, slices.Clone(rows))
	if want := []relation.Tuple{{1, 1 << 50, 3}, {1, 1 << 50, 3}, {2, 0, 0}}; err != nil || !wide.Sealed() || !reflect.DeepEqual(wide.Tuples(), want) {
		t.Fatalf("sorted three-word rows: %v, %v", wide, err)
	}

	swapped := slices.Clone(words)
	swapped[10], swapped[90] = swapped[90], swapped[10]
	above := append(slices.Clone(words), 1<<63) // arity 3 packs 63 bits
	for name, c := range map[string]struct {
		arity, stride int
		words         []uint64
		want          string
	}{
		"unsorted":          {3, 1, swapped, "not sorted"},
		"bits above width":  {3, 1, above, "bits above"},
		"arity 0":           {0, 1, nil, "layout"},
		"unpackable arity":  {65, 1, nil, "layout"},
		"lone word too big": {3, 1, []uint64{1 << 63}, "bits above"},
		"stride 0":          {3, 0, nil, "layout"},
		"stride past arity": {3, 4, nil, "layout"},
		"stride 4 at arity 5 leaves a word empty": {5, 4, nil, "layout"},
		"unsorted rows":   {3, 3, []uint64{s | 2, s, s, s | 1, s | 1<<50, s | 3}, "not sorted"},
		"late column":     {3, 3, []uint64{s | 1, s | 5, s | 3, s | 1, s | 5, s | 2}, "not sorted"},
		"negative value":  {3, 3, []uint64{s | 1, 2, s | 9, s | 1, s | 2, s | 3}, "negative"},
		"ragged":          {3, 3, []uint64{s | 1, s | 2, s | 3, s | 4}, "whole rows"},
		"padding bit set": {3, 2, []uint64{1<<32 | 2, 1 << 32}, "bits above"},
	} {
		before := slices.Clone(c.words)
		if buf, err := relation.NewRunFromWords(c.arity, c.stride, c.words); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: buffer %v, err %v, want a rejection naming %q", name, buf, err, c.want)
		}
		if !slices.Equal(c.words, before) {
			t.Errorf("%s: the constructor reordered its input", name)
		}
	}
}
