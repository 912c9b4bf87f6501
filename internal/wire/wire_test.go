package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// buildBuffer packs tuples of the given arity drawn from [0, max).
func buildBuffer(t *testing.T, arity, n, max int, seed uint64) *relation.Run {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 42))
	b := relation.NewRun(arity)
	row := make(relation.Tuple, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.IntN(max)
		}
		b.Append(row)
	}
	b.Seal()
	return b
}

// sampleFrames returns one well-formed frame of every type, with runs
// of one word a row and of three.
func sampleFrames(t *testing.T) []*Frame {
	t.Helper()
	packed := buildBuffer(t, 3, 100, 1000, 1)
	// A value past 32 bits takes a 64-bit field: arity 3, three words a
	// row.
	flat := relation.NewRun(3)
	flat.Append(relation.Tuple{1 << 40, 2, 3})
	flat.Append(relation.Tuple{4, 5 << 30, 6})
	flat.Seal()
	if flat.Stride() != 3 {
		t.Fatalf("expected three words a row, got %d", flat.Stride())
	}
	return []*Frame{
		{Type: TypeHello, Hello: Hello{Version: Version, Worker: 3, P: 8}},
		{Type: TypeData, Data: Data{Round: 2, Dest: 3, Rel: "R", Buf: packed}},
		{Type: TypeData, Data: Data{Round: 1, Dest: 0, Rel: "views/V1_1", Buf: flat}},
		{Type: TypeBarrier, Round: 7},
		{Type: TypeJoin, Join: Join{
			Query:    "q(x,y,z) = R(x,y), S(y,z)",
			View:     "V1_1!out",
			Bindings: [][2]string{{"R", "V1_1/R"}, {"S", "V1_1/S"}},
		}},
		{Type: TypeGather, View: "hc!answers"},
		{Type: TypeGather, View: "hc!answers", Limit: 100},
		{Type: TypeGather, View: "V2_1!out", Limit: -1},
		{Type: TypeAck, Round: 7},
		{Type: TypeDone, Count: 4},
		{Type: TypeDone, Count: 1, Rows: 1 << 33},
		{Type: TypeError, Msg: "worker 3: no such view"},
		{Type: TypePing, Round: 19},
		{Type: TypePong, Round: 19},
		{Type: TypeEpoch, Round: 2},
		{Type: TypeReset, Round: 5},
		{Type: TypeData, Data: Data{Round: 4, Dest: 1, Rel: "R", View: "delta!R!7", Buf: packed}},
		{Type: TypeData, Data: Data{Round: 4, Dest: 2, Rel: "S", Del: true, Buf: flat}},
		{Type: TypeData, Data: Data{Round: 1, Dest: 3, Rel: "V1_1/S1", Retain: "\x00opaque\xffkey", Buf: packed}},
		{Type: TypeAttach, Attach: Attach{Key: "\x00opaque\xffkey", Store: "V1_1/S1", Tuples: 1 << 40}},
		{Type: TypeAttach, Attach: Attach{Tuples: 58733, Hit: true}},
		{Type: TypeData, Data: Data{Round: 5, Dest: 3, Rel: "tc", View: "delta!tc!2", Absorb: true, Buf: packed}},
		{Type: TypeRoute, Route: Route{View: "hc!delta!2", Cols: []int{0, 2}, Grids: []*exchange.Grid{
			sampleGrid(t, []int{1, 4, 2}, []exchange.GridBind{{Pos: 0, Dim: 1}, {Pos: 1, Dim: 2}}),
			sampleGrid(t, []int{8}, nil),
		}}},
		{Type: TypePiece, Piece: Piece{Target: 1, Dest: 6, Buf: packed}},
		{Type: TypePiece, Piece: Piece{Dest: 2, Buf: flat}},
	}
}

// sampleGrid builds a grid over dims with seeds 1, 2, …
func sampleGrid(t *testing.T, dims []int, binds []exchange.GridBind) *exchange.Grid {
	t.Helper()
	seeds := make([]uint64, len(dims))
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	g, err := exchange.NewGrid(dims, seeds, binds)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lastType walks the Type values from 1 until String falls through to
// its default: the last named frame type.
func lastType() Type {
	typ := Type(1)
	for !strings.HasPrefix((typ + 1).String(), "Type(") {
		typ++
	}
	return typ
}

// sameFrame compares two frames, run-carrying ones by materialized
// contents (a decoded buffer need not share the original's layout
// bookkeeping).
func sameFrame(a, b *Frame) bool {
	tuples := func(buf *relation.Run) []relation.Tuple {
		if buf == nil {
			return nil
		}
		return buf.AppendTuples(nil)
	}
	ha, hb := *a, *b
	ha.Data.Buf, hb.Data.Buf, ha.Piece.Buf, hb.Piece.Buf = nil, nil, nil, nil
	return reflect.DeepEqual(ha, hb) &&
		reflect.DeepEqual(tuples(a.Data.Buf), tuples(b.Data.Buf)) &&
		reflect.DeepEqual(tuples(a.Piece.Buf), tuples(b.Piece.Buf))
}

// TestRoundTrip: every frame type the protocol names survives the codec
// unchanged, through every entry point the package has — they are one
// implementation, and bench/ still compiles against the older names. The
// table is checked against the Type enumeration itself, so a type cannot
// be added without a codec test here, and a type with no frame to test
// has no business staying.
func TestRoundTrip(t *testing.T) {
	frames := sampleFrames(t)
	covered := map[Type]bool{}
	for _, f := range frames {
		covered[f.Type] = true
	}
	last := lastType()
	for typ := Type(1); typ <= last; typ++ {
		if !covered[typ] {
			t.Errorf("frame type %s has no frame in the round-trip table", typ)
		}
	}
	if len(covered) != int(last) {
		t.Errorf("round-trip table covers %d types, the protocol names %d", len(covered), last)
	}

	encoders := map[string]func(*Frame) []byte{
		"Encode": func(f *Frame) []byte {
			var buf bytes.Buffer
			if err := Encode(&buf, f); err != nil {
				t.Fatalf("%s: encode: %v", f.Type, err)
			}
			return buf.Bytes()
		},
		"AppendFrames": func(f *Frame) []byte { return fastEncode(t, []*Frame{f}) },
		"Writer.Queue": func(f *Frame) []byte {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.Queue(f); err != nil {
				t.Fatalf("%s: queue: %v", f.Type, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", f.Type, err)
			}
			return buf.Bytes()
		},
	}
	decoders := map[string]func([]byte) (*Frame, error){
		"Decode":           func(b []byte) (*Frame, error) { return Decode(bytes.NewReader(b)) },
		"NewReader":        func(b []byte) (*Frame, error) { return NewReader(bytes.NewReader(b)).Next() },
		"NewTrustedReader": func(b []byte) (*Frame, error) { return NewTrustedReader(bytes.NewReader(b)).Next() },
	}
	for _, f := range frames {
		want := encoders["AppendFrames"](f)
		for en, encode := range encoders {
			enc := encode(f)
			if !bytes.Equal(enc, want) {
				t.Errorf("%s: %s and AppendFrames emit different bytes", f.Type, en)
			}
			for dn, decode := range decoders {
				got, err := decode(enc)
				if err != nil {
					t.Fatalf("%s → %s: %s: decode: %v", en, dn, f.Type, err)
				}
				if !sameFrame(f, got) {
					t.Errorf("%s → %s: %s: roundtrip mismatch:\n got %+v\nwant %+v", en, dn, f.Type, got, f)
				}
			}
		}
	}
}

// TestDecodeRejectsUnnamedTypes: byte 0 and every byte past the last
// named type — the first of which version 9 still used, for Reset,
// before version 10 retired Trace — is refused, with or without a
// payload behind it, and never panics.
func TestDecodeRejectsUnnamedTypes(t *testing.T) {
	payloads := [][]byte{nil, make([]byte, 12)}
	unnamed := []int{0}
	for b := int(lastType()) + 1; b <= 0xFF; b++ {
		unnamed = append(unnamed, b)
	}
	for _, b := range unnamed {
		for _, payload := range payloads {
			frame := append([]byte{byte(b), 0, 0, 0, byte(len(payload))}, payload...)
			if f, err := Decode(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
				t.Errorf("Decode of type byte %d (%d payload bytes): frame %+v, err %v", b, len(payload), f, err)
			}
		}
	}
}

func TestRoundTripStream(t *testing.T) {
	frames := sampleFrames(t)
	var buf bytes.Buffer
	for _, f := range frames {
		if err := Encode(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; ; i++ {
		f, err := Decode(&buf)
		if errors.Is(err, io.EOF) {
			if i != len(frames) {
				t.Fatalf("stream ended after %d frames, want %d", i, len(frames))
			}
			return
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != frames[i].Type {
			t.Fatalf("frame %d type %s, want %s", i, f.Type, frames[i].Type)
		}
	}
}

// TestDecodeTruncated: every proper prefix of every frame errors
// without panicking, and a mid-frame cut is ErrUnexpectedEOF.
func TestDecodeTruncated(t *testing.T) {
	for _, f := range sampleFrames(t) {
		var buf bytes.Buffer
		if err := Encode(&buf, f); err != nil {
			t.Fatal(err)
		}
		whole := buf.Bytes()
		for cut := 1; cut < len(whole); cut++ {
			_, err := Decode(bytes.NewReader(whole[:cut]))
			if err == nil {
				t.Fatalf("%s: decode of %d/%d bytes succeeded", f.Type, cut, len(whole))
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: truncation at %d reported clean EOF", f.Type, cut)
			}
		}
	}
}

// v9Trace is a Trace frame as version 9 sent it: type byte 13, then
// the trace id 9, span 1, round 1 and query id "q-1". Version 10 retired
// the type, and byte 13 now names Reset, whose payload this is not.
var v9Trace = []byte{13, 0, 0, 0, 25,
	0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 'q', '-', '1'}

// v10DeltaData and v10DeltaDelta carry a packed arity-3 run under
// encoding byte 3 as version 10 sent it — the first word 5, then the
// difference 1, as uvarints — in an appended and a retracted Data frame
// (version 14 folded the Delta frame into Data). Version 11 retired the
// encoding.
var (
	v10DeltaData = []byte{byte(TypeData), 0, 0, 0, 25,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 2, 5, 1}
	v10DeltaDelta = []byte{byte(TypeData), 0, 0, 0, 25,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, 0, 3, 3, 0, 0, 0, 2, 5, 1}
)

// A version-11 gather of view "out" and a version-11 done counting one
// frame: version 12 added the gather's row limit and the done's row
// count, so both payloads are short of them.
var (
	v11Gather = []byte{byte(TypeGather), 0, 0, 0, 5, 0, 3, 'o', 'u', 't'}
	v11Done   = []byte{byte(TypeDone), 0, 0, 0, 4, 0, 0, 0, 1}
)

func TestDecodeMalformed(t *testing.T) {
	packed := buildBuffer(t, 3, 4, 100, 9)
	enc := func(f *Frame) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown type", []byte{0xEE, 0, 0, 0, 0}, "unknown frame type"},
		{"version-9 trace frame", v9Trace, "trailing"},
		{"version-9 reset frame", []byte{15, 0, 0, 0, 4, 0, 0, 0, 1}, "piece frame: truncated"},
		{"oversized length", []byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF}, "exceeds"},
		{"version-10 delta-varint data", v10DeltaData, "unknown buffer encoding 3"},
		{"version-10 delta-varint delta", v10DeltaDelta, "unknown buffer encoding 3"},
		{"version-11 gather frame", v11Gather, "truncated"},
		{"version-11 done frame", v11Done, "truncated"},
		// A barrier payload is exactly 4 bytes; declaring 6 leaves
		// trailing payload the parser must reject.
		{"trailing bytes", []byte{byte(TypeBarrier), 0, 0, 0, 6, 0, 0, 0, 1, 0xAA, 0xBB}, "trailing"},
		{"zero arity", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			// arity field sits after 5 hdr + 4 round + 4 dest + 2 len + 1 "R"
			// + 2 len (no view) + 2 len (no retain key) + 1 mode.
			b[21], b[22] = 0, 0
		}), "arity"},
		{"bad encoding byte", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[23] = 9
		}), "encoding"},
		{"delta mode byte", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			// mode byte after 5 hdr + 4 round + 4 dest + 3 "R" + 2 (no view)
			// + 2 (no retain key).
			b[20] = 3
		}), "data mode byte 3"},
		// A route of view "", no columns and one grid: one dimension of
		// share 0 and seed 0, no binds — then of share 4, bound from
		// position 0 to a dimension it does not have.
		{"route grid of no points", []byte{byte(TypeRoute), 0, 0, 0, 22,
			0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "exceed"},
		{"route bind outside the grid", []byte{byte(TypeRoute), 0, 0, 0, 26,
			0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1}, "outside"},
		{"count overflows payload", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[24], b[25], b[26], b[27] = 0xFF, 0xFF, 0xFF, 0xFF
		}), "truncated payload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(c.data))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// mutate copies b, applies f, returns the copy.
func mutate(b []byte, f func([]byte)) []byte {
	out := append([]byte(nil), b...)
	f(out)
	return out
}

// TestDecodeRejectsDirtyHighBits: a packed word with bits above
// arity·shift would break the word-order ⇔ tuple-order invariant and
// must be rejected.
func TestDecodeRejectsDirtyHighBits(t *testing.T) {
	packed := buildBuffer(t, 3, 2, 10, 5)
	b := fastEncode(t, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}})
	b[len(b)-1] |= 0x80 // arity 3 uses 63 bits; set bit 63 of the last little-endian word
	_, err := Decode(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "bits above") {
		t.Fatalf("want high-bit rejection, got %v", err)
	}
}

// TestDecodedBufferSorted: a decoded run is sealed and in order (the
// Column invariant) because the decoder adopts only runs that arrive so:
// the same payloads with two words swapped, two three-word rows swapped or
// a 64-bit field's value negated are rejected, never re-sorted.
func TestDecodedBufferSorted(t *testing.T) {
	packed := relation.NewRun(2)
	packed.Append(relation.Tuple{9, 1})
	packed.Append(relation.Tuple{1, 2})
	packed.Append(relation.Tuple{5, 0})
	packed.Seal()
	flat := relation.NewRun(3)
	flat.Append(relation.Tuple{4, 5 << 30, 6})
	flat.Append(relation.Tuple{1 << 40, 2, 3})
	flat.Seal()
	swap := func(b []byte, i, j, n int) {
		tmp := append([]byte(nil), b[i:i+n]...)
		copy(b[i:i+n], b[j:j+n])
		copy(b[j:j+n], tmp)
	}
	for _, c := range []struct {
		name    string
		buf     *relation.Run
		corrupt func(b []byte)
		want    string
	}{
		{"raw words", packed, func(b []byte) { swap(b, len(b)-24, len(b)-8, 8) }, "not sorted"},
		{"flat rows", flat, func(b []byte) { swap(b, len(b)-48, len(b)-24, 24) }, "not sorted"},
		{"flat value", flat, func(b []byte) { b[len(b)-1] &^= 0x80 }, "negative"},
	} {
		stream := fastEncode(t, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: c.buf}}})
		got, err := Decode(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !got.Data.Buf.Sealed() {
			t.Fatalf("%s: decoded buffer not sealed", c.name)
		}
		ts := got.Data.Buf.AppendTuples(nil)
		if len(ts) != c.buf.Len() {
			t.Fatalf("%s: decoded %d tuples, sent %d", c.name, len(ts), c.buf.Len())
		}
		for i := 1; i < len(ts); i++ {
			if ts[i].Less(ts[i-1]) {
				t.Fatalf("%s: decoded buffer not sorted: %v before %v", c.name, ts[i-1], ts[i])
			}
		}
		if f, err := Decode(bytes.NewReader(mutate(stream, c.corrupt))); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s out of order: frame %+v, err %v, want a rejection naming %q", c.name, f, err, c.want)
		}
	}
}

// TestReaderAllocationFollowsArrival: the payload scratch grows with the
// bytes that arrive. A header declaring the largest legal payload with
// nothing behind it costs one read chunk, not 128 MiB; a length past
// MaxPayload is refused before any read.
func TestReaderAllocationFollowsArrival(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32([]byte{byte(TypeData)}, MaxPayload-1)
	for _, behind := range []int{0, 1000, 3 * readChunk} {
		stream := append(hdr[:5:5], make([]byte, behind)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := NewReader(bytes.NewReader(stream)).Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d bytes behind a %d-byte header: frame %+v, err %v, want ErrUnexpectedEOF", behind, MaxPayload-1, f, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%d bytes behind a lying header allocated %d bytes, want < 1 MiB", behind, got)
		}
	}
	over := binary.BigEndian.AppendUint32([]byte{byte(TypeData)}, MaxPayload+1)
	rd := bytes.NewReader(append(over, 1, 2, 3))
	if _, err := NewReader(rd).Next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized length: %v, want a refusal", err)
	}
	if rd.Len() != 3 {
		t.Errorf("an oversized length was refused after reading %d payload bytes", 3-rd.Len())
	}
}

// TestWriterQueuesBehindOneWrite: queued frames cost no write until the
// next Flush and leave ahead of its frames in wire order; a frame that
// does not encode writes nothing and leaves the queue as it was.
func TestWriterQueuesBehindOneWrite(t *testing.T) {
	var out countingWriter
	w := NewWriter(&out)
	if err := w.Queue(&Frame{Type: TypePong, Round: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Queue(&Frame{Type: TypeAck, Round: 3}); err != nil {
		t.Fatal(err)
	}
	if out.writes != 0 {
		t.Fatalf("Queue wrote %d times", out.writes)
	}
	unsealed := relation.NewRun(1)
	unsealed.Append(relation.Tuple{1})
	if err := w.Flush(&Frame{Type: TypeBarrier, Round: 1}, &Frame{Type: TypeData, Data: Data{Rel: "R", Buf: unsealed}}); err == nil {
		t.Fatal("an unsealed run was flushed")
	}
	if err := w.Queue(&Frame{Type: TypeGather, View: strings.Repeat("v", maxName+1)}); err == nil {
		t.Fatal("an over-long name was queued")
	}
	if out.writes != 0 {
		t.Fatalf("failed encodes wrote %d times", out.writes)
	}
	if err := w.Flush(&Frame{Type: TypeBarrier, Round: 4}); err != nil {
		t.Fatal(err)
	}
	if out.writes != 1 {
		t.Fatalf("queue and flush left in %d writes, want 1", out.writes)
	}
	rd := NewReader(&out.Buffer)
	for i, want := range []Type{TypePong, TypeAck, TypeBarrier} {
		f, err := rd.Next()
		if err != nil || f.Type != want {
			t.Fatalf("frame %d: %+v, %v, want %s", i, f, err, want)
		}
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the flushed frames: %v, want EOF", err)
	}
	if err := w.Flush(); err != nil || out.writes != 1 {
		t.Fatalf("an empty flush: err %v, %d writes", err, out.writes)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}
