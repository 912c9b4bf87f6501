package wire

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/relation"
)

// benchFrame builds a Data frame with n packed 3-ary tuples — the
// exact shape a triangle-query scatter ships per destination.
func benchFrame(n int) *Frame {
	rng := rand.New(rand.NewPCG(11, 13))
	b := relation.NewRun(3)
	row := make(relation.Tuple, 3)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.IntN(1 << 20)
		}
		b.Append(row)
	}
	b.Seal()
	return &Frame{Type: TypeData, Data: Data{Round: 1, Dest: 0, Rel: "R", Buf: b}}
}

// BenchmarkWireEncode measures the encoder on the columnar data frame,
// including assembling the vectored write list (but not the syscall);
// bytes/op via SetBytes → MB/s in the output.
func BenchmarkWireEncode(b *testing.B) {
	frames := []*Frame{benchFrame(1 << 16)}
	var probe bytes.Buffer
	if err := Encode(&probe, frames[0]); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(probe.Len()))
	var head []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if head, _, err = AppendFrames(head[:0], frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode measures the Reader on the same frame as a warm
// connection decodes it: scratch reused, one copy into word memory, the
// run validated where it lands.
func BenchmarkWireDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := Encode(&buf, benchFrame(1<<16)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	rd := NewReader(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.r = bytes.NewReader(data)
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
