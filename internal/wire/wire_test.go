package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// buildBuffer packs tuples of the given arity drawn from [0, max).
func buildBuffer(t *testing.T, arity, n, max int, seed uint64) *exchange.Buffer {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 42))
	b := exchange.NewBuffer(arity)
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

// sampleFrames returns one well-formed frame of every type, with both
// buffer encodings represented.
func sampleFrames(t *testing.T) []*Frame {
	t.Helper()
	packed := buildBuffer(t, 3, 100, 1000, 1)
	// Huge values defeat packing for arity 3 (21 bits per value).
	flat := exchange.NewBuffer(3)
	flat.Append(relation.Tuple{1 << 40, 2, 3})
	flat.Append(relation.Tuple{4, 5 << 30, 6})
	flat.Seal()
	if _, ok := flat.Words(); ok {
		t.Fatal("expected flat buffer")
	}
	return []*Frame{
		{Type: TypeHello, Hello: Hello{Version: Version, Worker: 3, P: 8}},
		{Type: TypeData, Data: Data{Round: 2, Dest: 3, Rel: "R", Buf: packed}},
		{Type: TypeData, Data: Data{Round: 1, Dest: 0, Rel: "views/V1_1", Buf: flat}},
		{Type: TypeBarrier, Round: 7},
		{Type: TypeJoin, Join: Join{
			Query:    "q(x,y,z) = R(x,y), S(y,z)",
			View:     "V1_1!out",
			Strategy: 3,
			Bindings: [][2]string{{"R", "V1_1/R"}, {"S", "V1_1/S"}},
		}},
		{Type: TypeGather, View: "hc!answers"},
		{Type: TypeAck, Round: 7},
		{Type: TypeDone, Count: 4},
		{Type: TypeError, Msg: "worker 3: no such view"},
		{Type: TypePing, Round: 19},
		{Type: TypePong, Round: 19},
		{Type: TypeEpoch, Round: 2},
		{Type: TypeTrace, Trace: TraceHeader{TraceID: 1 << 50, Span: 7, Round: 3, QueryID: "q-12"}},
		{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 1, Store: "R", View: "delta!R!7", Buf: packed}},
		{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 2, Store: "S", Del: true, Buf: flat}},
		{Type: TypeData, Data: Data{Round: 1, Dest: 3, Rel: "V1_1/S1", Retain: "\x00opaque\xffkey", Buf: packed}},
		{Type: TypeAttach, Attach: Attach{Key: "\x00opaque\xffkey", Store: "V1_1/S1", Tuples: 1 << 40}},
		{Type: TypeAttach, Attach: Attach{Tuples: 58733, Hit: true}},
	}
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
	tuples := func(buf *exchange.Buffer) []relation.Tuple {
		if buf == nil {
			return nil
		}
		return buf.AppendTuples(nil)
	}
	ha, hb := *a, *b
	ha.Data.Buf, hb.Data.Buf, ha.Delta.Buf, hb.Delta.Buf = nil, nil, nil, nil
	return reflect.DeepEqual(ha, hb) &&
		reflect.DeepEqual(tuples(a.Data.Buf), tuples(b.Data.Buf)) &&
		reflect.DeepEqual(tuples(a.Delta.Buf), tuples(b.Delta.Buf))
}

// TestRoundTrip: every frame type the protocol names survives every
// encoder × decoder pairing unchanged. The table is checked against the
// Type enumeration itself, so a type cannot be added without a codec
// test here, and a type with no frame to test has no business staying.
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
		"canonical": func(f *Frame) []byte {
			var buf bytes.Buffer
			if err := Encode(&buf, f); err != nil {
				t.Fatalf("%s: encode: %v", f.Type, err)
			}
			return buf.Bytes()
		},
		"fast": func(f *Frame) []byte { return fastEncode(t, []*Frame{f}) },
	}
	decoders := map[string]func([]byte) (*Frame, error){
		"validating": func(b []byte) (*Frame, error) { return Decode(bytes.NewReader(b)) },
		"trusted":    func(b []byte) (*Frame, error) { return NewTrustedReader(bytes.NewReader(b)).Next() },
	}
	for en, encode := range encoders {
		for dn, decode := range decoders {
			for _, f := range frames {
				got, err := decode(encode(f))
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
// named type — the first of which version 4 still used, for the frame
// type version 5 retired — is refused by both decoders, with or
// without a payload behind it, and never panics.
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
			if f, err := NewTrustedReader(bytes.NewReader(frame)).Next(); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
				t.Errorf("trusted Next of type byte %d (%d payload bytes): frame %+v, err %v", b, len(payload), f, err)
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
		{"oversized length", []byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF}, "exceeds"},
		// A barrier payload is exactly 4 bytes; declaring 6 leaves
		// trailing payload the parser must reject.
		{"trailing bytes", []byte{byte(TypeBarrier), 0, 0, 0, 6, 0, 0, 0, 1, 0xAA, 0xBB}, "trailing"},
		{"zero arity", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			// arity field sits after 5 hdr + 4 round + 4 dest + 2 len + 1 "R"
			// + 2 len (no retain key).
			b[18], b[19] = 0, 0
		}), "arity"},
		{"bad encoding byte", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[20] = 9
		}), "encoding"},
		{"count overflows payload", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[21], b[22], b[23], b[24] = 0xFF, 0xFF, 0xFF, 0xFF
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
	var buf bytes.Buffer
	if err := Encode(&buf, &Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-8] |= 0x80 // arity 3 uses 63 bits; set bit 63 of the last word
	_, err := Decode(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "bits above") {
		t.Fatalf("want high-bit rejection, got %v", err)
	}
}

// TestDecodedBufferSorted: decoding an unsorted payload still yields
// a sealed, sorted buffer (the Column invariant).
func TestDecodedBufferSorted(t *testing.T) {
	b := exchange.NewBuffer(2)
	b.Append(relation.Tuple{9, 1})
	b.Append(relation.Tuple{1, 2})
	b.Append(relation.Tuple{5, 0})
	// Do not Seal: encode the unsorted words via a crafted frame.
	var buf bytes.Buffer
	if err := Encode(&buf, &Frame{Type: TypeData, Data: Data{Rel: "R", Buf: b}}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := got.Data.Buf.AppendTuples(nil)
	for i := 1; i < len(ts); i++ {
		if ts[i].Less(ts[i-1]) {
			t.Fatalf("decoded buffer not sorted: %v before %v", ts[i-1], ts[i])
		}
	}
	if !got.Data.Buf.Sealed() {
		t.Fatal("decoded buffer not sealed")
	}
}
