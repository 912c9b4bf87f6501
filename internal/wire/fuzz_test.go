package wire

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// FuzzDecodeFrame holds the decoder to its safety contract on
// arbitrary input: it must return an error or a valid frame — never
// panic — and anything it accepts must survive an encode/decode
// round trip unchanged (up to buffer materialization). The seed
// corpus is real encoded frames of every type, both buffer encodings
// included, so the fuzzer starts from deep in the valid format.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *Frame) {
		var buf bytes.Buffer
		if err := Encode(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	rng := rand.New(rand.NewPCG(7, 7))
	packed := exchange.NewBuffer(3)
	row := make(relation.Tuple, 3)
	for i := 0; i < 200; i++ {
		for j := range row {
			row[j] = rng.IntN(5000)
		}
		packed.Append(row)
	}
	packed.Seal()
	flat := exchange.NewBuffer(2)
	flat.Append(relation.Tuple{1 << 50, 3})
	flat.Append(relation.Tuple{2, 1 << 40})
	flat.Seal()
	wide := exchange.NewBuffer(1)
	for i := 0; i < 64; i++ {
		wide.Append(relation.Tuple{i * i})
	}
	wide.Seal()

	seed(&Frame{Type: TypeHello, Hello: Hello{Version: Version, Worker: 1, P: 4}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Buf: packed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 3, Dest: 0, Rel: "V1_1/S", Buf: flat}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 0, Dest: 3, Rel: "hc!answers", Buf: wide}})
	seed(&Frame{Type: TypeBarrier, Round: 2})
	seed(&Frame{Type: TypeJoin, Join: Join{
		Query:    "q(x,y,z) = R(x,y), S(y,z)",
		View:     "out",
		Strategy: 1,
		Bindings: [][2]string{{"R", "V/R"}},
	}})
	seed(&Frame{Type: TypeGather, View: "out"})
	seed(&Frame{Type: TypeAck, Round: 2})
	seed(&Frame{Type: TypeDone, Count: 3})
	seed(&Frame{Type: TypeError, Msg: "boom"})
	seed(&Frame{Type: TypePing, Round: 41})
	seed(&Frame{Type: TypePong, Round: 41})
	seed(&Frame{Type: TypeEpoch, Round: 3})
	seed(&Frame{Type: TypeTrace, Trace: TraceHeader{TraceID: 1 << 40, Span: 3, Round: 2, QueryID: "q-7"}})
	seed(&Frame{Type: TypeTrace, Trace: TraceHeader{}})
	seed(&Frame{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 1, Store: "R", View: "delta!R!7", Buf: packed}})
	seed(&Frame{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 2, Store: "S", Del: true, Buf: flat}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Retain: "\x00key\xff", Buf: packed}})
	seed(&Frame{Type: TypeAttach, Attach: Attach{Key: "\x00key\xff", Store: "V1_1/S1", Tuples: 200}})
	seed(&Frame{Type: TypeAttach, Attach: Attach{Tuples: 200, Hit: true}})
	// Fast-path encodings: the same frames as the fast encoder ships
	// them — raw little-endian words for the random buffer, delta
	// varints for a skewed one — so the fuzzer mutates deep inside
	// encRaw and encDelta payloads too.
	fastSeed := func(fr *Frame) {
		_, bufs, err := AppendFrames(nil, []*Frame{fr})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		for _, b := range bufs {
			buf.Write(b)
		}
		f.Add(buf.Bytes())
	}
	fastSeed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Buf: packed}})
	fastSeed(&Frame{Type: TypeData, Data: Data{Round: 0, Dest: 3, Rel: "hc!answers", Buf: wide}})
	skewed := exchange.NewBuffer(2)
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	for i := 0; i < 512; i++ {
		skewed.Append(relation.Tuple{int(z.Uint64()), rng.IntN(64)})
	}
	skewed.Seal()
	fastSeed(&Frame{Type: TypeData, Data: Data{Round: 2, Dest: 1, Rel: "Z", Buf: skewed}})
	fastSeed(&Frame{Type: TypeData, Data: Data{Round: 2, Dest: 1, Rel: "Z", Retain: "\x00key\xff", Buf: skewed}})
	fastSeed(&Frame{Type: TypeDelta, Delta: Delta{Round: 5, Dest: 0, Store: "R", View: "delta!R!1", Buf: packed}})
	fastSeed(&Frame{Type: TypeDelta, Delta: Delta{Round: 5, Dest: 1, Store: "Z", Del: true, Buf: skewed}})
	// Hostile shapes: lying lengths, dirty high bits, truncation.
	f.Add([]byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{byte(TypeData), 0, 0, 0, 30, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 3, 0, 0, 0, 0, 2})
	f.Add([]byte{0xEE, 0, 0, 0, 0})
	// Version-4 frames under bytes that changed meaning in version 5:
	// the first byte past the last type, and a 12-byte payload under the
	// byte that now means Delta.
	f.Add([]byte{byte(TypeTrace) + 1, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{byte(TypeDelta), 0, 0, 0, 12, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0})
	// Hostile fast shapes: unsorted raw words, a delta payload whose
	// first word sets bits above the packed width, a truncated delta
	// varint, and a lying delta count.
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 36,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 3, encRaw, 0, 0, 0, 2,
		9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 31,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 3, encDelta, 0, 0, 0, 2,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, // 1<<63, +0
	})
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 21,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 3, encDelta, 0, 0, 0, 2,
		0x80,
	})
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 22,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 3, encDelta, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2,
	})
	// Hostile attach frames: a dirty hit byte, and a key length that
	// overruns the payload.
	f.Add([]byte{byte(TypeAttach), 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2})
	f.Add([]byte{byte(TypeAttach), 0, 0, 0, 13, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1})
	// Hostile delta frames: a dirty op byte (only 0 and 1 are legal), a
	// lying tuple count with almost no payload behind it, and a
	// truncated delta-varint body — all must reject without
	// over-allocating.
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 21,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 2, 0, 1, encPacked, 0, 0, 0, 0,
	})
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 23,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, encPacked, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2,
	})
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 22,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, encDelta, 0, 0, 0, 2,
		0x80,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, fr); err != nil {
			t.Fatalf("accepted frame %s does not re-encode: %v", fr.Type, err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame %s does not decode: %v", fr.Type, err)
		}
		if again.Type != fr.Type {
			t.Fatalf("round trip changed type %s → %s", fr.Type, again.Type)
		}
		if fr.Type == TypeData {
			a := fr.Data.Buf.AppendTuples(nil)
			b := again.Data.Buf.AppendTuples(nil)
			if len(a) != len(b) {
				t.Fatalf("round trip changed tuple count %d → %d", len(a), len(b))
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("round trip changed tuple %d: %v → %v", i, a[i], b[i])
				}
			}
		}
		if fr.Type == TypeDelta {
			if fr.Delta.Store != again.Delta.Store || fr.Delta.View != again.Delta.View || fr.Delta.Del != again.Delta.Del {
				t.Fatalf("round trip changed delta header %+v → %+v", fr.Delta, again.Delta)
			}
			a := fr.Delta.Buf.AppendTuples(nil)
			b := again.Delta.Buf.AppendTuples(nil)
			if len(a) != len(b) {
				t.Fatalf("round trip changed delta tuple count %d → %d", len(a), len(b))
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("round trip changed delta tuple %d: %v → %v", i, a[i], b[i])
				}
			}
		}
		// Differential oracle: every accepted frame must fast-encode
		// into bytes on which the trusted Reader and the validating
		// Decode agree exactly.
		_, bufs, err := AppendFrames(nil, []*Frame{fr})
		if err != nil {
			t.Fatalf("accepted frame %s does not fast-encode: %v", fr.Type, err)
		}
		var fast bytes.Buffer
		for _, b := range bufs {
			fast.Write(b)
		}
		stream := fast.Bytes()
		ft, err := NewTrustedReader(bytes.NewReader(stream)).Next()
		if err != nil {
			t.Fatalf("trusted decode of fast %s frame: %v", fr.Type, err)
		}
		fv, err := Decode(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("validating decode of fast %s frame: %v", fr.Type, err)
		}
		if ft.Type != fv.Type {
			t.Fatalf("fast decode type disagrees: trusted %s, validating %s", ft.Type, fv.Type)
		}
		if fr.Type == TypeData {
			a := ft.Data.Buf.AppendTuples(nil)
			b := fv.Data.Buf.AppendTuples(nil)
			c := fr.Data.Buf.AppendTuples(nil)
			if len(a) != len(b) || len(a) != len(c) {
				t.Fatalf("fast decode tuple counts diverge: trusted %d, validating %d, original %d", len(a), len(b), len(c))
			}
			for i := range a {
				if !a[i].Equal(b[i]) || !a[i].Equal(c[i]) {
					t.Fatalf("fast decode tuple %d diverges: trusted %v validating %v original %v", i, a[i], b[i], c[i])
				}
			}
		}
		if fr.Type == TypeDelta {
			if ft.Delta.Store != fr.Delta.Store || ft.Delta.View != fr.Delta.View || ft.Delta.Del != fr.Delta.Del ||
				fv.Delta.Store != fr.Delta.Store || fv.Delta.View != fr.Delta.View || fv.Delta.Del != fr.Delta.Del {
				t.Fatalf("fast decode delta header diverges: trusted %+v validating %+v original %+v", ft.Delta, fv.Delta, fr.Delta)
			}
			a := ft.Delta.Buf.AppendTuples(nil)
			b := fv.Delta.Buf.AppendTuples(nil)
			c := fr.Delta.Buf.AppendTuples(nil)
			if len(a) != len(b) || len(a) != len(c) {
				t.Fatalf("fast decode delta tuple counts diverge: trusted %d, validating %d, original %d", len(a), len(b), len(c))
			}
			for i := range a {
				if !a[i].Equal(b[i]) || !a[i].Equal(c[i]) {
					t.Fatalf("fast decode delta tuple %d diverges: trusted %v validating %v original %v", i, a[i], b[i], c[i])
				}
			}
		}
	})
}
