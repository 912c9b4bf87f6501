package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"unsafe"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// Buffer-body encodings inside Data and Delta payloads, one per run
// layout: a packed run ships its words raw, a flat-layout run ships
// row-major. Bytes 0 and 3 were the big-endian packed encoding version 7
// retired and the delta-varint encoding version 11 retired; both stay
// unassigned.
const (
	encFlat = 1 // row-major big-endian int64 values
	encRaw  = 2 // packed words as little-endian memory, sent zero-copy
)

// deltaAbsorb is the mode byte of an absorbing Delta, beside 0 (append)
// and 1 (retract).
const deltaAbsorb = 2

// hostLittleEndian reports whether native uint64 memory order matches
// the encRaw wire order; a big-endian host swap-copies its words into
// the head buffer instead of aliasing them.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordsLE returns the words' memory as little-endian wire bytes
// without copying; ok is false on big-endian hosts.
func wordsLE(words []uint64) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	if len(words) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8), true
}

// AppendFrames encodes frames for one connection. Frame headers,
// control payloads and flat run payloads are appended to head (which
// may be nil; the grown slice is returned for reuse); raw packed
// payloads are returned as separate zero-copy segments aliasing the
// buffers' word memory. The segments slot into the returned write
// list in wire order, ready for a vectored send (net.Buffers). Callers
// must not mutate the frames' buffers until the write completes —
// sealed buffers are immutable, so this holds by construction. If a
// frame does not encode, head comes back as it was.
func AppendFrames(head []byte, frames []*Frame) (newHead []byte, bufs [][]byte, err error) {
	// A segment splices into the write list after head[:at].
	type segment struct {
		at int
		b  []byte
	}
	var segs []segment
	was := len(head)
	for _, f := range frames {
		var seg []byte
		if head, seg, err = appendFrame(head, f); err != nil {
			return head[:was], nil, err
		}
		if len(seg) > 0 {
			segs = append(segs, segment{len(head), seg})
		}
	}
	// Build the write list only after head has stopped growing:
	// earlier slices into a still-appending buffer would dangle on
	// reallocation.
	bufs = make([][]byte, 0, 2*len(segs)+1)
	prev := 0
	for _, s := range segs {
		if s.at > prev {
			bufs = append(bufs, head[prev:s.at])
		}
		bufs = append(bufs, s.b)
		prev = s.at
	}
	if len(head) > prev {
		bufs = append(bufs, head[prev:])
	}
	return head, bufs, nil
}

// appendFrame appends one frame's header and inline bytes to dst and
// returns any zero-copy payload segment that belongs immediately after
// them; on failure dst comes back unchanged.
func appendFrame(dst []byte, f *Frame) ([]byte, []byte, error) {
	w := payloadWriter{b: append(dst, byte(f.Type), 0, 0, 0, 0)}
	bodyAt := len(w.b)
	var seg []byte
	switch f.Type {
	case TypeHello:
		w.u16(f.Hello.Version)
		w.u32(f.Hello.Worker)
		w.u32(f.Hello.P)
	case TypeData:
		w.u32(f.Data.Round)
		w.u32(f.Data.Dest)
		w.str(f.Data.Rel)
		w.str(f.Data.Retain)
		seg = w.buffer(f.Data.Buf)
	case TypeDelta:
		w.u32(f.Delta.Round)
		w.u32(f.Delta.Dest)
		w.str(f.Delta.Store)
		w.str(f.Delta.View)
		switch {
		case f.Delta.Del && f.Delta.Absorb:
			w.fail(fmt.Errorf("delta both retracts and absorbs"))
		case f.Delta.Absorb:
			w.b = append(w.b, deltaAbsorb)
		default:
			w.flag(f.Delta.Del)
		}
		seg = w.buffer(f.Delta.Buf)
	case TypeRoute:
		w.str(f.Route.View)
		w.ints(f.Route.Cols)
		w.count(len(f.Route.Grids))
		for _, g := range f.Route.Grids {
			w.count(len(g.Dims()))
			for _, d := range g.Dims() {
				w.u32(uint32(d))
			}
			for _, seed := range g.Seeds() {
				w.u64(seed)
			}
			w.count(len(g.Binds()))
			for _, b := range g.Binds() {
				w.u16(uint16(b.Pos))
				w.u16(uint16(b.Dim))
			}
		}
	case TypePiece:
		w.u32(f.Piece.Target)
		w.u32(f.Piece.Dest)
		seg = w.buffer(f.Piece.Buf)
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch, TypeReset:
		w.u32(f.Round)
	case TypeAttach:
		w.str(f.Attach.Key)
		w.str(f.Attach.Store)
		w.u64(f.Attach.Tuples)
		w.flag(f.Attach.Hit)
	case TypeJoin:
		w.str(f.Join.Query)
		w.str(f.Join.View)
		if len(f.Join.Bindings) > maxName {
			w.fail(fmt.Errorf("%d bindings exceed limit", len(f.Join.Bindings)))
		}
		w.u16(uint16(len(f.Join.Bindings)))
		for _, b := range f.Join.Bindings {
			w.str(b[0])
			w.str(b[1])
		}
	case TypeGather:
		w.str(f.View)
		w.u64(uint64(f.Limit))
	case TypeDone:
		w.u32(f.Count)
		w.u64(f.Rows)
	case TypeError:
		w.str(f.Msg)
	default:
		w.fail(fmt.Errorf("unknown frame type %d", uint8(f.Type)))
	}
	n := len(w.b) - bodyAt + len(seg)
	if n > MaxPayload {
		w.fail(fmt.Errorf("payload %d bytes exceeds %d", n, MaxPayload))
	}
	if w.err != nil {
		return dst, nil, fmt.Errorf("wire: encode %s frame: %w", f.Type, w.err)
	}
	binary.BigEndian.PutUint32(w.b[bodyAt-4:], uint32(n))
	return w.b, seg, nil
}

// payloadWriter appends big-endian payload fields to b; the first
// failure sticks.
type payloadWriter struct {
	b   []byte
	err error
}

func (w *payloadWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *payloadWriter) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *payloadWriter) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *payloadWriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

// flag appends a boolean as the byte 0 or 1.
func (w *payloadWriter) flag(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// count appends a uint16 element count.
func (w *payloadWriter) count(n int) {
	if n > maxName {
		w.fail(fmt.Errorf("%d elements exceed %d", n, maxName))
	}
	w.u16(uint16(n))
}

// ints appends a uint16-counted list of uint16 values.
func (w *payloadWriter) ints(vs []int) {
	w.count(len(vs))
	for _, v := range vs {
		if v < 0 || v > maxName {
			w.fail(fmt.Errorf("value %d out of range", v))
		}
		w.u16(uint16(v))
	}
}

// str appends a uint16-length-prefixed string.
func (w *payloadWriter) str(s string) {
	if len(s) > maxName {
		w.fail(fmt.Errorf("string of %d bytes exceeds %d", len(s), maxName))
		return
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// buffer appends one sealed run — arity u16, encoding byte, tuple count
// u32, values — in the encoding of its layout, and returns the raw word
// segment when there is one. Only a sealed run is sent: the receiver
// rejects words out of order.
func (w *payloadWriter) buffer(buf *relation.Run) (seg []byte) {
	if !buf.Sealed() {
		w.fail(fmt.Errorf("unsealed buffer"))
		return nil
	}
	arity := buf.Arity()
	if arity < 1 || arity > maxName {
		w.fail(fmt.Errorf("buffer arity %d out of range", arity))
		return nil
	}
	w.u16(uint16(arity))
	words, packed := buf.Words()
	if !packed {
		flat := buf.Flat()
		w.b = append(w.b, encFlat)
		w.u32(uint32(len(flat) / arity))
		for _, v := range flat {
			w.u64(uint64(int64(v)))
		}
		return nil
	}
	w.b = append(w.b, encRaw)
	w.u32(uint32(len(words)))
	if seg, ok := wordsLE(words); ok {
		return seg
	}
	for _, word := range words {
		w.b = binary.LittleEndian.AppendUint64(w.b, word)
	}
	return nil
}

// Writer is the sending half of a connection. Frames are encoded behind
// whatever is already queued and everything leaves in one vectored
// write, raw word payloads as segments aliasing their buffers.
type Writer struct {
	w io.Writer
	// head holds the encoded frames not yet written and doubles as the
	// reusable encoder scratch.
	head []byte
}

// NewWriter returns a Writer onto w. A net.Conn gets one writev per
// Flush; any other writer gets the segments one Write at a time.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Queue encodes f to leave with the next Flush, costing no write of its
// own. A raw payload is copied behind its header, so queue control
// frames and flush runs.
func (w *Writer) Queue(f *Frame) error {
	head, seg, err := appendFrame(w.head, f)
	w.head = append(head, seg...)
	return err
}

// Flush encodes frames behind the queued ones and writes all of it. If
// a frame does not encode nothing is written and the queue stays as it
// was.
func (w *Writer) Flush(frames ...*Frame) error {
	if len(frames) == 0 && len(w.head) == 0 {
		return nil
	}
	head, bufs, err := AppendFrames(w.head, frames)
	if err != nil {
		return err
	}
	w.head = head[:0]
	nb := net.Buffers(bufs)
	_, err = nb.WriteTo(w.w)
	return err
}

// Encode writes one frame to w: a one-frame Flush. It stays for bench/,
// which changes only with the benchmark; ROADMAP item 7 deletes it.
func Encode(w io.Writer, f *Frame) error { return NewWriter(w).Flush(f) }

// Reader is the receiving half of a connection and the only decoder:
// every frame, from a coordinator or a worker, is validated as it is
// parsed, and a run's values are copied out of the payload exactly once,
// into the storage the returned Buffer keeps. The payload scratch is
// reused across frames and grows with the bytes that arrive, never to a
// length a header merely declares.
type Reader struct {
	r   io.Reader
	hdr [5]byte
	buf []byte
	// f is the frame Next decodes into and returns.
	f Frame
}

// readChunk is the first allocation step of a Reader's payload scratch.
const readChunk = 1 << 16

// NewReader returns a Reader over r. It reads exactly the frames it
// returns, nothing ahead, so r should be buffered.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// NewTrustedReader is NewReader under the name bench/ compiles against;
// nothing is trusted. ROADMAP item 7 deletes it.
func NewTrustedReader(r io.Reader) *Reader { return NewReader(r) }

// Decode reads one frame from r through a Reader of its own. It stays
// for bench/; ROADMAP item 7 deletes it.
func Decode(r io.Reader) (*Frame, error) { return NewReader(r).Next() }

// Next reads and decodes one frame. It returns io.EOF when the stream
// ends cleanly between frames and io.ErrUnexpectedEOF on a truncated
// one. The frame is the Reader's, valid until the next call, so a caller
// copies what it keeps of it; the runs and strings it holds are fresh.
func (rd *Reader) Next() (*Frame, error) {
	if _, err := io.ReadFull(rd.r, rd.hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rd.r, rd.hdr[1:]); err != nil {
		return nil, unexpected(err)
	}
	typ := Type(rd.hdr[0])
	n := int(binary.BigEndian.Uint32(rd.hdr[1:]))
	if n > MaxPayload {
		return nil, fmt.Errorf("wire: %s payload length %d exceeds %d", typ, n, MaxPayload)
	}
	// Read into the scratch already owned; past it, in steps no larger
	// than what has already arrived (from one chunk up): a lying length
	// prefix on a short or stalled stream allocates only a small multiple
	// of what the stream actually holds.
	body := rd.buf[:0]
	for len(body) < n {
		step := min(n-len(body), max(cap(body)-len(body), len(body), readChunk))
		body = slices.Grow(body, step)[:len(body)+step]
		if _, err := io.ReadFull(rd.r, body[len(body)-step:]); err != nil {
			return nil, unexpected(err)
		}
	}
	rd.buf = body
	rd.f = Frame{Type: typ}
	if err := decodePayload(&rd.f, body); err != nil {
		return nil, err
	}
	return &rd.f, nil
}

// decodePayload parses and validates one frame payload into f, whose
// Type it reads.
func decodePayload(f *Frame, body []byte) error {
	p := &payloadReader{b: body}
	switch typ := f.Type; typ {
	case TypeHello:
		f.Hello.Version = p.u16()
		f.Hello.Worker = p.u32()
		f.Hello.P = p.u32()
	case TypeData:
		f.Data.Round = p.u32()
		f.Data.Dest = p.u32()
		f.Data.Rel = p.str()
		f.Data.Retain = p.str()
		f.Data.Buf = p.buffer()
	case TypeDelta:
		f.Delta.Round = p.u32()
		f.Delta.Dest = p.u32()
		f.Delta.Store = p.str()
		f.Delta.View = p.str()
		switch mode := p.u8(); mode {
		case 0, 1:
			f.Delta.Del = mode == 1
		case deltaAbsorb:
			f.Delta.Absorb = true
		default:
			p.fail(fmt.Errorf("delta mode byte %d", mode))
		}
		f.Delta.Buf = p.buffer()
	case TypeRoute:
		f.Route.View = p.str()
		f.Route.Cols = p.ints()
		n := int(p.u16())
		for i := 0; i < n && p.err == nil; i++ {
			f.Route.Grids = append(f.Route.Grids, p.grid())
		}
	case TypePiece:
		f.Piece.Target = p.u32()
		f.Piece.Dest = p.u32()
		f.Piece.Buf = p.buffer()
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch, TypeReset:
		f.Round = p.u32()
	case TypeAttach:
		f.Attach.Key, f.Attach.Store = p.str(), p.str()
		f.Attach.Tuples = p.u64()
		f.Attach.Hit = p.flag()
	case TypeJoin:
		f.Join.Query = p.str()
		f.Join.View = p.str()
		nb := int(p.u16())
		for i := 0; i < nb && p.err == nil; i++ {
			f.Join.Bindings = append(f.Join.Bindings, [2]string{p.str(), p.str()})
		}
	case TypeGather:
		f.View = p.str()
		f.Limit = int64(p.u64())
	case TypeDone:
		f.Count = p.u32()
		f.Rows = p.u64()
	case TypeError:
		f.Msg = p.str()
	default:
		return fmt.Errorf("wire: unknown frame type %d", uint8(typ))
	}
	if p.err != nil {
		return fmt.Errorf("wire: %s frame: %w", f.Type, p.err)
	}
	if len(p.b) != p.off {
		return fmt.Errorf("wire: %s frame has %d trailing payload bytes", f.Type, len(p.b)-p.off)
	}
	return nil
}

// payloadReader is a bounds-checked cursor over a payload; the first
// failure sticks.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// take returns the next n payload bytes, or nil — recording the failure
// — when fewer remain (or n is nonsensical).
func (p *payloadReader) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || n > len(p.b)-p.off {
		p.fail(fmt.Errorf("truncated payload: need %d bytes, have %d", n, len(p.b)-p.off))
		return nil
	}
	p.off += n
	return p.b[p.off-n : p.off]
}

func (p *payloadReader) u8() uint8 {
	if b := p.take(1); b != nil {
		return b[0]
	}
	return 0
}

// flag reads a byte that must be 0 or 1.
func (p *payloadReader) flag() bool {
	v := p.u8()
	if v > 1 {
		p.fail(fmt.Errorf("flag byte %d", v))
	}
	return v == 1
}

func (p *payloadReader) u16() uint16 {
	if b := p.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (p *payloadReader) u32() uint32 {
	if b := p.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (p *payloadReader) u64() uint64 {
	if b := p.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// str reads a uint16-length-prefixed string.
func (p *payloadReader) str() string {
	return string(p.take(int(p.u16())))
}

// ints reads a uint16-counted list of uint16 values.
func (p *payloadReader) ints() []int {
	n := int(p.u16())
	var vs []int
	for i := 0; i < n && p.err == nil; i++ {
		vs = append(vs, int(p.u16()))
	}
	return vs
}

// grid reads one grid spec and has exchange.NewGrid check it.
func (p *payloadReader) grid() *exchange.Grid {
	k := int(p.u16())
	var dims []int
	var seeds []uint64
	for i := 0; i < k && p.err == nil; i++ {
		dims = append(dims, int(p.u32()))
	}
	for i := 0; i < k && p.err == nil; i++ {
		seeds = append(seeds, p.u64())
	}
	nb := int(p.u16())
	var binds []exchange.GridBind
	for i := 0; i < nb && p.err == nil; i++ {
		binds = append(binds, exchange.GridBind{Pos: int(p.u16()), Dim: int(p.u16())})
	}
	if p.err != nil {
		return nil
	}
	g, err := exchange.NewGrid(dims, seeds, binds)
	if err != nil {
		p.fail(err)
	}
	return g
}

// buffer reads one run — the body appendFrame's buffer wrote — into
// fresh storage and has the relation constructors check it: they adopt a
// run that is in order and in range and refuse any other. The storage
// is sized by the payload bytes present, whatever the count claims.
func (p *payloadReader) buffer() *relation.Run {
	arity, enc, count := int(p.u16()), p.u8(), int(p.u32())
	if p.err != nil {
		return nil
	}
	var buf *relation.Run
	var err error
	switch enc {
	case encRaw:
		raw := p.take(count * 8)
		words := make([]uint64, len(raw)/8)
		if dst, ok := wordsLE(words); ok {
			copy(dst, raw)
		} else {
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		}
		buf, err = relation.NewRunFromWords(arity, words)
	case encFlat:
		raw := p.take(count * arity * 8)
		flat := make([]int, len(raw)/8)
		for i := range flat {
			v := int64(binary.BigEndian.Uint64(raw[i*8:]))
			if flat[i] = int(v); int64(flat[i]) != v {
				err = fmt.Errorf("flat value %d overflows int", v)
			}
		}
		if err == nil {
			buf, err = relation.NewRunFromFlat(arity, flat)
		}
	default:
		err = fmt.Errorf("unknown buffer encoding %d", enc)
	}
	if err != nil {
		p.fail(err)
	}
	return buf
}

// unexpected normalizes a short read into io.ErrUnexpectedEOF so
// callers can distinguish "stream ended between frames" (io.EOF from
// the first header byte) from "stream died mid-frame".
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
