package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// fastEncode runs frames through AppendFrames and flattens the
// vectored write list into one byte stream, as a connection would see.
func fastEncode(t *testing.T, frames []*Frame) []byte {
	t.Helper()
	_, bufs, err := AppendFrames(nil, frames)
	if err != nil {
		t.Fatalf("AppendFrames: %v", err)
	}
	var out bytes.Buffer
	for _, b := range bufs {
		out.Write(b)
	}
	return out.Bytes()
}

// zipfBuffer builds a sealed packed buffer whose first column is
// heavily skewed, the shape delta compression exists for.
func zipfBuffer(t *testing.T, n int, seed uint64) *relation.Run {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 7))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	b := relation.NewRun(2)
	for i := 0; i < n; i++ {
		b.Append(relation.Tuple{int(z.Uint64()), rng.IntN(1 << 10)})
	}
	b.Seal()
	return b
}

// TestFastRoundTrip: a batch of every frame type — a skewed run and an
// empty one included — encodes into one stream that one Reader, reusing
// its scratch from frame to frame, decodes back into the same frames,
// and that a fresh Decode per frame reads the same way.
func TestFastRoundTrip(t *testing.T) {
	frames := sampleFrames(t)
	frames = append(frames,
		&Frame{Type: TypeData, Data: Data{Round: 3, Dest: 1, Rel: "Z", Buf: zipfBuffer(t, 4096, 3)}},
		&Frame{Type: TypeData, Data: Data{Round: 3, Dest: 2, Rel: "E", Buf: buildBuffer(t, 3, 0, 10, 4)}},
	)
	stream := fastEncode(t, frames)

	reused := NewReader(bytes.NewReader(stream))
	fresh := bytes.NewReader(stream)
	for i, want := range frames {
		fr, err := reused.Next()
		if err != nil {
			t.Fatalf("frame %d (%s): reader: %v", i, want.Type, err)
		}
		ff, err := Decode(fresh)
		if err != nil {
			t.Fatalf("frame %d (%s): decode: %v", i, want.Type, err)
		}
		if !sameFrame(want, fr) || !sameFrame(want, ff) {
			t.Fatalf("frame %d (%s): reader %+v, decode %+v, want %+v", i, want.Type, fr, ff, want)
		}
	}
	if _, err := reused.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("reader past end: %v, want EOF", err)
	}
}

// TestFastEncodingChoice: a skewed sorted column ships as encDelta and
// is materially smaller than raw; incompressible random words stay on
// the zero-copy raw path.
func TestFastEncodingChoice(t *testing.T) {
	encodingOf := func(buf *relation.Run) (byte, int) {
		_, bufs, err := AppendFrames(nil, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: buf}}})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for _, b := range bufs {
			out.Write(b)
		}
		stream := out.Bytes()
		// enc byte sits after 5 hdr + 4 round + 4 dest + 2 len + 1 "R" +
		// 2 len (no retain key) + 2 arity.
		return stream[20], out.Len()
	}

	skewed := zipfBuffer(t, 4096, 11)
	enc, size := encodingOf(skewed)
	if enc != encDelta {
		t.Fatalf("skewed column encoded as %d, want encDelta", enc)
	}
	raw := skewed.Len() * 8
	if size >= raw*3/4 {
		t.Fatalf("delta payload %d bytes, want < 3/4 of raw %d", size, raw)
	}

	random := buildBuffer(t, 3, 4096, 1<<20, 17)
	if enc, _ := encodingOf(random); enc != encRaw {
		t.Fatalf("random column encoded as %d, want encRaw", enc)
	}
}

// TestFastZeroCopySegments: raw word payloads come back as segments
// aliasing the buffer's word memory, not copies.
func TestFastZeroCopySegments(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy segments only on little-endian hosts")
	}
	buf := buildBuffer(t, 3, 1024, 1<<20, 23)
	words, _ := buf.Words()
	_, bufs, err := AppendFrames(nil, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: buf}}})
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := wordsLE(words)
	if !ok {
		t.Fatal("wordsLE failed on little-endian host")
	}
	found := false
	for _, b := range bufs {
		if len(b) == len(seg) && &b[0] == &seg[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("no write segment aliases the buffer's word memory")
	}
}

// TestFastRejectsUnsealed: the encoder refuses unsealed buffers — the
// receiver would reject their words, and delta varints cannot carry them.
func TestFastRejectsUnsealed(t *testing.T) {
	b := relation.NewRun(2)
	b.Append(relation.Tuple{9, 1})
	b.Append(relation.Tuple{1, 2})
	_, _, err := AppendFrames(nil, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: b}}})
	if err == nil || !strings.Contains(err.Error(), "unsealed") {
		t.Fatalf("fast-encode of unsealed buffer: %v, want unsealed error", err)
	}
}

// TestValidatingRejectsDirtyRawWords: the decoder rejects raw payloads
// whose words set bits above the packed width, and raw payloads that are
// not sorted.
func TestValidatingRejectsDirtyRawWords(t *testing.T) {
	buf := buildBuffer(t, 3, 4, 10, 29)
	stream := fastEncode(t, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: buf}}})

	dirty := mutate(stream, func(b []byte) {
		b[len(b)-1] |= 0x80 // little-endian: last byte holds bit 63 of the last word
	})
	if _, err := Decode(bytes.NewReader(dirty)); err == nil || !strings.Contains(err.Error(), "bits above") {
		t.Fatalf("dirty raw word: %v, want high-bit rejection", err)
	}

	unsorted := mutate(stream, func(b []byte) {
		// Raise the first word to 2^62 (still inside the 63-bit packed
		// width) so it out-orders the small words after it.
		first := len(b) - 4*8
		b[first+7] = 0x40
	})
	if _, err := Decode(bytes.NewReader(unsorted)); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("unsorted raw words: %v, want sorted rejection", err)
	}
}

// TestValidatingRejectsDirtyDeltaWords: a delta payload whose first
// word already exceeds the packed width is rejected.
func TestValidatingRejectsDirtyDeltaWords(t *testing.T) {
	words := make([]uint64, 64)
	words[0] = 1 << 63 // arity-2 packing uses all 64 bits; use arity 3 (63 bits)
	for i := 1; i < len(words); i++ {
		words[i] = words[i-1] + 1
	}
	body := payloadWriter{}
	body.u32(0) // round
	body.u32(0) // dest
	body.str("R")
	body.str("") // retain
	body.u16(3)  // arity 3 → 21 bits/value, 63 used
	body.b = append(body.b, encDelta)
	body.u32(uint32(len(words)))
	body.b = exchange.AppendDeltaWords(body.b, words)
	stream := binary.BigEndian.AppendUint32([]byte{byte(TypeData)}, uint32(len(body.b)))
	stream = append(stream, body.b...)
	if _, err := Decode(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "bits above") {
		t.Fatalf("dirty delta word: %v, want high-bit rejection", err)
	}
}
