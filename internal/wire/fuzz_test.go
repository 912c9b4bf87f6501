package wire

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// encPacked, encFlat and encDelta are the big-endian packed encoding
// version 7 retired, the row-major flat encoding version 15 retired and
// the delta-varint encoding version 11 retired; the seeds that carry them
// stay in the corpus as inputs that must be refused.
const (
	encPacked = 0
	encFlat   = 1
	encDelta  = 3
)

// FuzzDecodeFrame holds the decoder to its safety contract on
// arbitrary input: it must return an error or a valid frame — never
// panic — and anything it accepts must re-encode to a stream that
// decodes to an equal frame. The seed corpus is real encoded frames of
// every type, runs at every stride of arity 3 included, so the fuzzer
// starts from deep in the valid format; its hostile entries must be
// refused.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *Frame) {
		var buf bytes.Buffer
		if err := Encode(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	hostile := func(data []byte) {
		if fr, err := Decode(bytes.NewReader(data)); err == nil {
			f.Fatalf("hostile seed % x decoded as %+v", data, fr)
		}
		f.Add(data)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	packed := relation.NewRun(3)
	row := make(relation.Tuple, 3)
	for i := 0; i < 200; i++ {
		for j := range row {
			row[j] = rng.IntN(5000)
		}
		packed.Append(row)
	}
	packed.Seal()
	flat := relation.NewRun(2)
	flat.Append(relation.Tuple{1 << 50, 3})
	flat.Append(relation.Tuple{2, 1 << 40})
	flat.Seal()
	wide := relation.NewRun(1)
	for i := 0; i < 64; i++ {
		wide.Append(relation.Tuple{i * i})
	}
	wide.Seal()
	// Arity 3 at strides 1, 2 and 3: values below 2²¹, 2³² and past it.
	for _, top := range []int{1 << 21, 1 << 32, 1 << 62} {
		run := relation.NewRun(3)
		for i := 0; i < 20; i++ {
			run.Append(relation.Tuple{rng.IntN(top), rng.IntN(50), top - 1 - rng.IntN(3)})
		}
		run.Seal()
		seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 1, Rel: fmt.Sprint("stride", run.Stride()), Buf: run}})
	}

	seed(&Frame{Type: TypeHello, Hello: Hello{Version: Version, Worker: 1, P: 4}})
	// Version 14's hello decodes — a worker refuses its version, as
	// dist's FuzzWorkerSession holds it to.
	f.Add([]byte{byte(TypeHello), 0, 0, 0, 10, 0, 14, 0, 0, 0, 1, 0, 0, 0, 4})
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Buf: packed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 3, Dest: 0, Rel: "V1_1/S", Buf: flat}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 0, Dest: 3, Rel: "hc!answers", Buf: wide}})
	seed(&Frame{Type: TypeBarrier, Round: 2})
	seed(&Frame{Type: TypeJoin, Join: Join{
		Query:    "q(x,y,z) = R(x,y), S(y,z)",
		View:     "out",
		Bindings: [][2]string{{"R", "V/R"}},
	}})
	seed(&Frame{Type: TypeGather, View: "out"})
	seed(&Frame{Type: TypeGather, View: "out", Limit: 100})
	seed(&Frame{Type: TypeGather, View: "out", Limit: -1})
	seed(&Frame{Type: TypeAck, Round: 2})
	seed(&Frame{Type: TypeDone, Count: 3})
	seed(&Frame{Type: TypeDone, Count: 1, Rows: 40000})
	seed(&Frame{Type: TypeError, Msg: "boom"})
	seed(&Frame{Type: TypePing, Round: 41})
	seed(&Frame{Type: TypePong, Round: 41})
	seed(&Frame{Type: TypeEpoch, Round: 3})
	seed(&Frame{Type: TypeReset, Round: 1})
	seed(&Frame{Type: TypeData, Data: Data{Round: 4, Dest: 1, Rel: "R", View: "delta!R!7", Buf: packed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 4, Dest: 2, Rel: "S", Del: true, Buf: flat}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Retain: "\x00key\xff", Buf: packed}})
	seed(&Frame{Type: TypeAttach, Attach: Attach{Key: "\x00key\xff", Store: "V1_1/S1", Tuples: 200}})
	seed(&Frame{Type: TypeAttach, Attach: Attach{Tuples: 200, Hit: true}})
	// Runs of every shape: an empty run, a skewed column (plain,
	// retained, as a maintenance delete), a flat maintenance append.
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Buf: relation.RunOf(3, nil)}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 6, Dest: 3, Rel: "S", View: "delta!S!2", Buf: flat}})
	skewed := relation.NewRun(2)
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	for i := 0; i < 512; i++ {
		skewed.Append(relation.Tuple{int(z.Uint64()), rng.IntN(64)})
	}
	skewed.Seal()
	seed(&Frame{Type: TypeData, Data: Data{Round: 2, Dest: 1, Rel: "Z", Buf: skewed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 2, Dest: 1, Rel: "Z", Retain: "\x00key\xff", Buf: skewed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 5, Dest: 0, Rel: "R", View: "delta!R!1", Buf: wide}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 5, Dest: 1, Rel: "Z", Del: true, Buf: skewed}})
	// A mode and a retain key together: the codec carries it, a worker
	// refuses it.
	seed(&Frame{Type: TypeData, Data: Data{Round: 5, Dest: 1, Rel: "Z", Retain: "\x00key\xff", Del: true, Buf: skewed}})
	// Version 13's fixpoint steps: an absorbed run, a route through two
	// grids, and the pieces a route answers with.
	seed(&Frame{Type: TypeData, Data: Data{Round: 7, Dest: 2, Rel: "tc", View: "delta!tc!3", Absorb: true, Buf: wide}})
	grid := func(dims []int, binds ...exchange.GridBind) *exchange.Grid {
		g, err := exchange.NewGrid(dims, make([]uint64, len(dims)), binds)
		if err != nil {
			f.Fatal(err)
		}
		return g
	}
	seed(&Frame{Type: TypeRoute, Route: Route{View: "hc!delta!3", Cols: []int{0, 2}, Grids: []*exchange.Grid{
		grid([]int{1, 4, 1}, exchange.GridBind{Pos: 1, Dim: 1}),
		grid([]int{2, 2}, exchange.GridBind{Pos: 0, Dim: 0}, exchange.GridBind{Pos: 1, Dim: 0}),
	}}})
	seed(&Frame{Type: TypePiece, Piece: Piece{Target: 1, Dest: 3, Buf: packed}})
	seed(&Frame{Type: TypePiece, Piece: Piece{Dest: 0, Buf: flat}})
	// Hostile shapes: lying lengths, dirty high bits, truncation.
	hostile([]byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF})
	hostile([]byte{byte(TypeData), 0, 0, 0, 33, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2})
	hostile([]byte{0xEE, 0, 0, 0, 0})
	// Version-4 frames under bytes that changed meaning in version 5: a
	// trace frame under what was then the first byte past the last type,
	// and a 12-byte payload under the byte that meant Delta until version
	// 14, now Attach's.
	hostile([]byte{14, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0})
	hostile([]byte{12, 0, 0, 0, 12, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0})
	// Version-9 frames under the bytes version 10 renumbered: the retired
	// trace frame, and the byte that meant Reset, now Piece's, whose
	// payload this is not.
	hostile(v9Trace)
	hostile([]byte{15, 0, 0, 0, 4, 0, 0, 0, 1})
	// Hostile routes: a grid of no points, a bind to a dimension the grid
	// does not have.
	hostile([]byte{byte(TypeRoute), 0, 0, 0, 22,
		0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	hostile([]byte{byte(TypeRoute), 0, 0, 0, 26,
		0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1})
	// Hostile fast shapes: unsorted raw words, then three version-10
	// delta-varint bodies — a first word above the packed width, a
	// truncated varint, a lying count.
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 40,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encRaw, 1, 0, 0, 0, 2,
		9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 34,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encDelta, 0, 0, 0, 2,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, // 1<<63, +0
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 24,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encDelta, 0, 0, 0, 2,
		0x80,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 25,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encDelta, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2,
	})
	// Hostile attach frames: a dirty hit byte, and a key length that
	// overruns the payload.
	hostile([]byte{byte(TypeAttach), 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2})
	hostile([]byte{byte(TypeAttach), 0, 0, 0, 13, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1})
	// Hostile Data frames in the modes a maintenance batch ships: a dirty
	// mode byte (0, 1 and 2 are legal), a lying tuple count with almost no
	// payload behind it, and a truncated delta-varint body — all must
	// reject without over-allocating.
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 23,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 3, 0, 1, encPacked, 0, 0, 0, 0,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 25,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, 0, 1, encPacked, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 24,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, 0, 1, encDelta, 0, 0, 0, 2,
		0x80,
	})

	// Version 14's flat body, one arity-1 row, which version 15 retired.
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 31,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 1, encFlat, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
	})
	// Hostile raw runs: a padding bit set (arity 3 at stride 2: the second
	// word holds one 32-bit field), a 64-bit field holding a negative value
	// (the arity-1 word 1), rows out of order (arity 2 at stride 2), a
	// count larger than its payload, bytes trailing the run.
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 40,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encRaw, 2, 0, 0, 0, 1,
		1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 32,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 1, encRaw, 1, 0, 0, 0, 1,
		1, 0, 0, 0, 0, 0, 0, 0,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 56,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 2, encRaw, 2, 0, 0, 0, 2,
		9, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0x80,
		1, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0x80,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 32,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encRaw, 1, 0, 0, 0, 2,
		1, 0, 0, 0, 0, 0, 0, 0,
	})
	hostile([]byte{
		byte(TypeData), 0, 0, 0, 33,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 3, encRaw, 1, 0, 0, 0, 1,
		1, 0, 0, 0, 0, 0, 0, 0, 0xAA,
	})
	// Well-formed version-10 delta-varint runs, which that version
	// decoded: appended and retracted.
	hostile(v10DeltaData)
	hostile(v10DeltaDelta)
	// Version-11 gather and done frames, short of the row limit and the
	// row count version 12 added.
	hostile(v11Gather)
	hostile(v11Done)

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
		if !sameFrame(fr, again) {
			t.Fatalf("round trip changed the frame:\n was %+v\n now %+v", fr, again)
		}
		for _, run := range []*relation.Run{fr.Data.Buf, fr.Piece.Buf} {
			if run != nil && !run.Sealed() {
				t.Fatalf("accepted %s frame carries an unsealed run", fr.Type)
			}
		}
	})
}
