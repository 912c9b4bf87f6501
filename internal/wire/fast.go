package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"repro/internal/exchange"
)

// This file is the trusted fast path of the codec: the encoder and
// decoder used between this repo's own coordinator and worker
// processes, where every Data payload comes from a sealed
// exchange.Buffer by construction. The fast encoder reinterprets the
// packed word slice as raw little-endian bytes (an unsafe slice view,
// no per-word re-encoding) and hands the payload back as separate
// write segments so the transport can issue one vectored (writev)
// send per batch; when a sorted column is delta-compressible it
// switches to the uvarint delta encoding instead and inlines the
// smaller payload. The trusted Reader decodes raw payloads with a
// single copy into word memory and skips the re-sort and high-bit
// validation that the untrusted path performs.
//
// The validating Decode remains the mandatory path for untrusted
// input — worker handshakes, fuzzing, and the differential oracle —
// and accepts every fast encoding, so anything the fast path emits
// can always be checked against it.

// hostLittleEndian reports whether native uint64 memory order matches
// the encRaw wire order; big-endian hosts fall back to per-word byte
// swaps on both sides.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// deltaMinWords is the smallest packed run the fast encoder considers
// delta-compressing; below it the size probe costs more than the copy.
const deltaMinWords = 32

// deltaMaxRatio gates delta compression: the encoded payload must be
// at most 3/4 of the raw 8 bytes per word, so nearly-incompressible
// columns keep the zero-copy raw path.
const deltaMaxRatio = 0.75

// wordsLE returns the words' memory as little-endian wire bytes
// without copying when the host is little-endian; ok is false on
// big-endian hosts (callers swap-copy instead).
func wordsLE(words []uint64) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	if len(words) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8), true
}

// appendUvint-style helpers for the append-based fast encoder.
func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > maxName {
		return dst, fmt.Errorf("wire: string of %d bytes exceeds %d", len(s), maxName)
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// segRef marks a zero-copy word segment to splice into the vectored
// write list after offset start of the head buffer.
type segRef struct {
	start int
	seg   []byte
}

// AppendFrames fast-encodes frames for one connection. Frame headers,
// control payloads and compressed Data payloads are appended to head
// (which may be nil; the grown slice is returned for reuse); raw
// packed Data payloads are returned as separate zero-copy segments
// aliasing the buffers' word memory. The segments slot into the
// returned write list in wire order, ready for a vectored send
// (net.Buffers). Callers must not mutate the frames' buffers until
// the write completes — sealed buffers are immutable, so this holds
// by construction on the dist hot path.
func AppendFrames(head []byte, frames []*Frame) (newHead []byte, bufs [][]byte, err error) {
	var segs []segRef
	for _, f := range frames {
		var seg []byte
		head, seg, err = appendFrame(head, f)
		if err != nil {
			return head, nil, err
		}
		if len(seg) > 0 {
			segs = append(segs, segRef{start: len(head), seg: seg})
		}
	}
	// Build the write list only after head has stopped growing:
	// earlier slices into a still-appending buffer would dangle on
	// reallocation.
	bufs = make([][]byte, 0, 2*len(segs)+1)
	prev := 0
	for _, s := range segs {
		if s.start > prev {
			bufs = append(bufs, head[prev:s.start])
		}
		bufs = append(bufs, s.seg)
		prev = s.start
	}
	if len(head) > prev {
		bufs = append(bufs, head[prev:])
	}
	return head, bufs, nil
}

// appendFrame appends one frame's header and inline bytes to dst and
// returns any zero-copy payload segment that belongs immediately
// after the appended bytes.
func appendFrame(dst []byte, f *Frame) ([]byte, []byte, error) {
	hdrAt := len(dst)
	dst = append(dst, byte(f.Type), 0, 0, 0, 0)
	bodyAt := len(dst)
	var seg []byte
	var err error
	switch f.Type {
	case TypeData:
		dst, seg, err = appendData(dst, &f.Data)
		if err != nil {
			return dst, nil, err
		}
	case TypeDelta:
		dst, seg, err = appendDelta(dst, &f.Delta)
		if err != nil {
			return dst, nil, err
		}
	case TypeHello:
		dst = appendU16(dst, f.Hello.Version)
		dst = appendU32(dst, f.Hello.Worker)
		dst = appendU32(dst, f.Hello.P)
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch:
		dst = appendU32(dst, f.Round)
	case TypeAttach:
		if dst, err = appendString(dst, f.Attach.Key); err != nil {
			return dst, nil, err
		}
		if dst, err = appendString(dst, f.Attach.Store); err != nil {
			return dst, nil, err
		}
		dst = append(appendU64(dst, f.Attach.Tuples), boolByte(f.Attach.Hit))
	case TypeJoin:
		if dst, err = appendString(dst, f.Join.Query); err != nil {
			return dst, nil, err
		}
		if dst, err = appendString(dst, f.Join.View); err != nil {
			return dst, nil, err
		}
		dst = append(dst, f.Join.Strategy)
		if len(f.Join.Bindings) > maxName {
			return dst, nil, fmt.Errorf("wire: %d bindings exceed limit", len(f.Join.Bindings))
		}
		dst = appendU16(dst, uint16(len(f.Join.Bindings)))
		for _, b := range f.Join.Bindings {
			if dst, err = appendString(dst, b[0]); err != nil {
				return dst, nil, err
			}
			if dst, err = appendString(dst, b[1]); err != nil {
				return dst, nil, err
			}
		}
	case TypeGather:
		if dst, err = appendString(dst, f.View); err != nil {
			return dst, nil, err
		}
	case TypeDone:
		dst = appendU32(dst, f.Count)
	case TypeError:
		if dst, err = appendString(dst, f.Msg); err != nil {
			return dst, nil, err
		}
	case TypeTrace:
		dst = appendU64(dst, f.Trace.TraceID)
		dst = appendU64(dst, f.Trace.Span)
		dst = appendU32(dst, f.Trace.Round)
		if dst, err = appendString(dst, f.Trace.QueryID); err != nil {
			return dst, nil, err
		}
	default:
		return dst, nil, fmt.Errorf("wire: encode unknown frame type %d", f.Type)
	}
	n := len(dst) - bodyAt + len(seg)
	if n > MaxPayload {
		return dst, nil, fmt.Errorf("wire: %s payload %d bytes exceeds %d", f.Type, n, MaxPayload)
	}
	binary.BigEndian.PutUint32(dst[hdrAt+1:], uint32(n))
	return dst, seg, nil
}

// appendData appends a Data payload, choosing the encoding: packed
// buffers ship as zero-copy raw words (returned as seg) unless the
// column delta-compresses below deltaMaxRatio, in which case the
// smaller delta payload is inlined; flat-path buffers keep the
// canonical big-endian flat encoding.
func appendData(dst []byte, d *Data) ([]byte, []byte, error) {
	dst = appendU32(dst, d.Round)
	dst = appendU32(dst, d.Dest)
	var err error
	if dst, err = appendString(dst, d.Rel); err != nil {
		return dst, nil, err
	}
	if dst, err = appendString(dst, d.Retain); err != nil {
		return dst, nil, err
	}
	return appendBufferBody(dst, d.Buf)
}

// appendDelta appends a Delta payload; the buffer body shares the
// Data encodings and encoding choice.
func appendDelta(dst []byte, d *Delta) ([]byte, []byte, error) {
	dst = appendU32(dst, d.Round)
	dst = appendU32(dst, d.Dest)
	var err error
	if dst, err = appendString(dst, d.Store); err != nil {
		return dst, nil, err
	}
	if dst, err = appendString(dst, d.View); err != nil {
		return dst, nil, err
	}
	return appendBufferBody(append(dst, boolByte(d.Del)), d.Buf)
}

// appendBufferBody appends one sealed buffer body, choosing the
// encoding as documented on appendData.
func appendBufferBody(dst []byte, buf *exchange.Buffer) ([]byte, []byte, error) {
	if !buf.Sealed() {
		// Both fast encodings assume sorted words (raw is validated as
		// sorted on receive, delta cannot represent disorder), and the
		// dist layer only ever ships sealed runs.
		return dst, nil, fmt.Errorf("wire: fast-encode of unsealed buffer")
	}
	arity := buf.Arity()
	if arity < 1 || arity > maxName {
		return dst, nil, fmt.Errorf("wire: buffer arity %d out of range", arity)
	}
	dst = appendU16(dst, uint16(arity))
	if words, ok := buf.Words(); ok {
		if len(words) >= deltaMinWords {
			if size := exchange.DeltaWordsSize(words); float64(size) <= deltaMaxRatio*float64(len(words)*8) {
				dst = append(dst, encDelta)
				dst = appendU32(dst, uint32(len(words)))
				return exchange.AppendDeltaWords(dst, words), nil, nil
			}
		}
		dst = append(dst, encRaw)
		dst = appendU32(dst, uint32(len(words)))
		if seg, ok := wordsLE(words); ok {
			return dst, seg, nil
		}
		// Big-endian host: swap-copy inline instead of aliasing.
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst, nil, nil
	}
	flat := buf.Flat()
	dst = append(dst, encFlat)
	dst = appendU32(dst, uint32(len(flat)/arity))
	for _, v := range flat {
		dst = appendU64(dst, uint64(int64(v)))
	}
	return dst, nil, nil
}

// Reader decodes frames from a stream this process trusts — the
// post-handshake coordinator↔worker connections, whose Data payloads
// are produced from sealed buffers by our own fast encoder. Raw word
// payloads decode with a single copy into word memory and skip the
// re-sort and high-bit validation of the untrusted path; control
// frames go through the same validating parser as Decode. The payload
// scratch buffer is reused across calls, so decoding allocates only
// the word storage that outlives the frame.
//
// A Reader must never be pointed at input from outside this process's
// trust boundary; Decode is the mandatory path there.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewTrustedReader returns a Reader over r, which should already be
// buffered (the dist transports hand in their connection's
// bufio.Reader).
func NewTrustedReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next reads and decodes one frame. It returns io.EOF when the stream
// ends cleanly between frames and io.ErrUnexpectedEOF mid-frame,
// matching Decode.
func (rd *Reader) Next() (*Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(rd.r, hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rd.r, hdr[1:]); err != nil {
		return nil, unexpected(err)
	}
	typ := Type(hdr[0])
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxPayload {
		return nil, fmt.Errorf("wire: %s payload length %d exceeds %d", typ, n, MaxPayload)
	}
	if cap(rd.buf) < n {
		rd.buf = make([]byte, n)
	}
	body := rd.buf[:n]
	if _, err := io.ReadFull(rd.r, body); err != nil {
		return nil, unexpected(err)
	}
	switch typ {
	case TypeData:
		f := &Frame{Type: typ}
		if err := decodeDataTrusted(body, &f.Data); err != nil {
			return nil, fmt.Errorf("wire: %s frame: %w", typ, err)
		}
		return f, nil
	case TypeDelta:
		f := &Frame{Type: typ}
		if err := decodeDeltaTrusted(body, &f.Delta); err != nil {
			return nil, fmt.Errorf("wire: %s frame: %w", typ, err)
		}
		return f, nil
	default:
		return decodePayload(typ, body)
	}
}

// decodeDataTrusted parses a Data payload on the trusted path: raw
// and packed words and flat rows go straight into sealed buffers
// without re-sorting or value validation (wide answers travel on the
// flat layout, so it is a hot path too), and delta payloads decode
// through the (inherently order-preserving) varint codec.
func decodeDataTrusted(body []byte, d *Data) error {
	p := &payloadReader{b: body}
	d.Round = p.u32()
	d.Dest = p.u32()
	d.Rel = p.str()
	d.Retain = p.str()
	buf, err := decodeBufferBodyTrusted(p)
	if err != nil {
		return err
	}
	d.Buf = buf
	return nil
}

// decodeDeltaTrusted parses a Delta payload on the trusted path; the
// buffer body shares decodeDataTrusted's fast decodings.
func decodeDeltaTrusted(body []byte, d *Delta) error {
	p := &payloadReader{b: body}
	d.Round = p.u32()
	d.Dest = p.u32()
	d.Store = p.str()
	d.View = p.str()
	if d.Del = p.flag(); p.err != nil {
		return p.err
	}
	buf, err := decodeBufferBodyTrusted(p)
	if err != nil {
		return err
	}
	d.Buf = buf
	return nil
}

// decodeBufferBodyTrusted parses one buffer body on the trusted path
// and requires full payload consumption.
func decodeBufferBodyTrusted(p *payloadReader) (*exchange.Buffer, error) {
	arity := int(p.u16())
	enc := p.u8()
	count := int(p.u32())
	if p.err != nil {
		return nil, p.err
	}
	if arity < 1 {
		return nil, fmt.Errorf("arity %d", arity)
	}
	var out *exchange.Buffer
	switch enc {
	case encRaw:
		if !p.need(count * 8) {
			return nil, p.err
		}
		raw := p.b[p.off : p.off+count*8]
		p.off += count * 8
		words := make([]uint64, count)
		if hostLittleEndian {
			if count > 0 {
				copy(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), count*8), raw)
			}
		} else {
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		}
		buf, err := exchange.NewBufferFromSortedWords(arity, words)
		if err != nil {
			return nil, err
		}
		out = buf
	case encDelta:
		words, err := exchange.DecodeDeltaWords(p.b[p.off:], count)
		if err != nil {
			return nil, err
		}
		p.off = len(p.b)
		buf, err := exchange.NewBufferFromSortedWords(arity, words)
		if err != nil {
			return nil, err
		}
		out = buf
	case encPacked:
		if !p.need(count * 8) {
			return nil, p.err
		}
		words := make([]uint64, count)
		for i := range words {
			words[i] = p.u64()
		}
		buf, err := exchange.NewBufferFromSortedWords(arity, words)
		if err != nil {
			return nil, err
		}
		out = buf
	case encFlat:
		values := count * arity
		if !p.need(values * 8) {
			return nil, p.err
		}
		flat := make([]int, values)
		for i := range flat {
			flat[i] = int(int64(p.u64()))
		}
		buf, err := exchange.NewBufferFromSortedFlat(arity, flat)
		if err != nil {
			return nil, err
		}
		out = buf
	default:
		return nil, fmt.Errorf("unknown buffer encoding %d", enc)
	}
	if p.err != nil {
		return nil, p.err
	}
	if len(p.b) != p.off {
		return nil, fmt.Errorf("%d trailing payload bytes", len(p.b)-p.off)
	}
	return out, nil
}
