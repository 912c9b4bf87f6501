// Package wire defines the length-prefixed frame format spoken
// between the distributed MPC coordinator and its worker processes
// (internal/dist, cmd/mpcworker).
//
// Every frame is
//
//	type   byte   — a Type constant
//	length uint32 — payload size in bytes, big-endian, ≤ MaxPayload
//	payload       — type-specific, all integers big-endian
//
// The payload that matters is the columnar one: a Data frame carries
// one sealed exchange.Buffer — the unit the exchange layer ships
// between workers — as the round id, the destination shard, the store
// name, and the buffer body in its native encoding: one uint64 word
// per tuple on the packed path, a row-major int64 sequence on the
// flat fallback path; a Delta frame carries a maintenance run the same
// way. Control frames carry the BSP protocol around the data (Hello,
// Barrier, Join, Gather, Ack, Done, Error), the recovery handshake
// (Ping, Pong, Epoch), the tracing context (Trace) and the resident
// scatter (Attach). Every frame
// type has a reader on the receiving side: a frame nothing consumes
// does not belong in the protocol.
//
// Decode is defensive: any malformed or truncated frame yields an
// error, never a panic, and allocation is bounded by the bytes that
// actually arrive (a length prefix larger than the available input
// cannot force a large allocation). FuzzDecodeFrame in this package
// holds the codec to that contract.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/exchange"
)

// Type enumerates the frame kinds of the protocol.
type Type uint8

// Frame types. The coordinator sends Hello, Data, Delta, Trace,
// Barrier, Join, Gather, Ping, Epoch and Attach; a worker replies with
// Ack, Data, Done, Pong, Attach and Error. The values are contiguous from 1 —
// retiring a type renumbers the ones after it and bumps Version.
const (
	// TypeHello opens a session: protocol version, worker id, pool
	// size. The worker replies with an Ack.
	TypeHello Type = 1 + iota
	// TypeData carries one sealed columnar run for one destination
	// shard. Sent coordinator→worker during scatter rounds and
	// worker→coordinator while answering a Gather.
	TypeData
	// TypeBarrier ends a communication round; the worker acks it after
	// it has ingested every preceding Data frame (frames on one
	// connection are processed in order).
	TypeBarrier
	// TypeJoin instructs the worker to evaluate a conjunctive query
	// over its stored relations and store the result under a view name.
	TypeJoin
	// TypeGather asks the worker to stream the runs it holds under a
	// view name back as Data frames, terminated by a Done frame.
	TypeGather
	// TypeAck acknowledges a Hello, Barrier, Join or Epoch, echoing a
	// tag: the round number for barriers, the epoch for announcements,
	// zero otherwise.
	TypeAck
	// TypeDone terminates a Gather stream and reports the number of
	// Data frames that preceded it.
	TypeDone
	// TypeError reports a worker-side failure; the session is dead
	// afterwards.
	TypeError
	// TypePing is a coordinator heartbeat carrying a sequence tag in
	// Round; a live worker echoes it back as a Pong.
	TypePing
	// TypePong answers a Ping, echoing the sequence tag in Round.
	TypePong
	// TypeEpoch announces the coordinator's recovery epoch in Round.
	// Epochs only ever grow: a worker rejects a decreasing epoch as a
	// stale coordinator and acks an accepted one, echoing the epoch.
	TypeEpoch
	// TypeDelta carries one sealed delta run for incremental view
	// maintenance: the tuples of a maintenance batch routed to one
	// worker. A delete delta tombstones the run's tuples in the named
	// store; an append delta registers the run under the store and,
	// when a view name is present, under that view as well (the
	// Δ-relation the maintenance join reads). Like Data, Delta frames
	// are unacknowledged — the round barrier is the ingestion fence.
	TypeDelta
	// TypeTrace carries a distributed-tracing span context
	// coordinator→worker: the trace id, the coordinator-side span the
	// round's work parents under, the round number, and the query id.
	// Trace frames are unacknowledged (the round barrier fences them
	// like Data); a worker simply records the most recent header so its
	// session can attribute work to the query being traced.
	TypeTrace
	// TypeAttach asks a worker to bind the runs its process keeps under
	// an opaque key into the session's store; the worker answers with an
	// Attach of its own.
	TypeAttach
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeData:
		return "data"
	case TypeBarrier:
		return "barrier"
	case TypeJoin:
		return "join"
	case TypeGather:
		return "gather"
	case TypeAck:
		return "ack"
	case TypeDone:
		return "done"
	case TypeError:
		return "error"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeEpoch:
		return "epoch"
	case TypeDelta:
		return "delta"
	case TypeTrace:
		return "trace"
	case TypeAttach:
		return "attach"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Version is the protocol version carried by Hello frames; a worker
// rejects a coordinator speaking a different version. Version 2 added
// the fast-path Data encodings (raw little-endian words, delta-varint
// words) that version-1 decoders would reject; version 3 added the
// Delta frame of incremental view maintenance; version 4 added the
// Trace frame of per-round distributed tracing; version 5 retired a
// per-barrier state broadcast that no receiver read, renumbering Delta
// and Trace; version 6 added the Attach frame and the Retain key of Data.
const Version = 6

// MaxPayload bounds a frame's declared payload size (128 MiB). A
// larger length prefix is rejected before any payload is read.
const MaxPayload = 1 << 27

// maxName bounds store/view name and query-text lengths inside
// payloads (they are length-prefixed with uint16, so this is also the
// encoding limit).
const maxName = math.MaxUint16

// Hello is the session-opening payload.
type Hello struct {
	// Version is the sender's protocol version (must equal Version).
	Version uint16
	// Worker is the id this connection plays in the pool, in [0, P).
	Worker uint32
	// P is the worker-pool size.
	P uint32
}

// Data is one sealed columnar run in flight.
type Data struct {
	// Round is the communication round the run belongs to (0 for
	// gather replies).
	Round uint32
	// Dest is the destination shard (worker id). A worker rejects a
	// Data frame whose Dest is not its own id — catching routing bugs
	// at the wire instead of as silently wrong answers.
	Dest uint32
	// Rel is the store name the run lands under.
	Rel string
	// Retain, when non-empty, is the key the worker also keeps the run
	// under for later sessions to Attach to, from the round's barrier on.
	Retain string
	// Buf is the run itself.
	Buf *exchange.Buffer
}

// Attach is the resident-scatter request and its reply.
type Attach struct {
	// Key names the resident runs, Store the session store they are bound
	// under; a reply leaves both empty.
	Key, Store string
	// Tuples is how many tuples the key must hold to be a hit (request;
	// zero: nothing to bind), and how many the worker held (reply).
	Tuples uint64
	// Hit reports, in a reply, that the runs are bound.
	Hit bool
}

// Delta is one sealed maintenance run in flight. Its buffer body uses
// the same encodings as Data.
type Delta struct {
	// Round is the communication round the delta belongs to.
	Round uint32
	// Dest is the destination shard (worker id); workers reject
	// mis-routed deltas like mis-routed Data.
	Dest uint32
	// Store is the resident store the delta applies to.
	Store string
	// View is the Δ-relation view name an append delta also registers
	// its run under; empty for delete deltas (and for appends that no
	// maintenance join will read).
	View string
	// Del discriminates delete (tombstone) from append deltas.
	Del bool
	// Buf is the run itself.
	Buf *exchange.Buffer
}

// TraceHeader is the span context a Trace frame propagates
// coordinator→worker.
type TraceHeader struct {
	// TraceID identifies the trace the coming round belongs to.
	TraceID uint64
	// Span is the coordinator-side span id the round's worker-side
	// work parents under.
	Span uint64
	// Round is the communication round the header announces.
	Round uint32
	// QueryID is the serving-layer query id the trace belongs to.
	QueryID string
}

// Join is the local-evaluation command.
type Join struct {
	// Query is the conjunctive query in query.Parse syntax.
	Query string
	// View is the store name the evaluation result lands under.
	View string
	// Strategy selects the localjoin algorithm (the numeric value of a
	// localjoin.Strategy).
	Strategy uint8
	// Bindings maps atom names to store names when they differ (the
	// multiround executor stores inputs under view-prefixed names).
	// Atoms without an entry read the store of their own name.
	Bindings [][2]string
}

// Frame is one decoded protocol frame; the field matching Type is
// meaningful, the rest are zero.
type Frame struct {
	// Type discriminates the payload.
	Type Type
	// Hello is set for TypeHello.
	Hello Hello
	// Data is set for TypeData.
	Data Data
	// Delta is set for TypeDelta.
	Delta Delta
	// Join is set for TypeJoin.
	Join Join
	// Round is set for TypeBarrier and TypeAck (the echoed tag), for
	// TypePing and TypePong (the heartbeat sequence), and for TypeEpoch
	// (the announced epoch).
	Round uint32
	// View is set for TypeGather.
	View string
	// Count is set for TypeDone: the number of Data frames streamed.
	Count uint32
	// Msg is set for TypeError.
	Msg string
	// Trace is set for TypeTrace.
	Trace TraceHeader
	// Attach is set for TypeAttach.
	Attach Attach
}

// buffer encoding discriminators inside Data payloads. encPacked and
// encFlat are the canonical big-endian encodings Encode emits; encRaw
// and encDelta are the fast-path encodings AppendFrames chooses for
// packed buffers (raw little-endian word memory for vectored sends,
// delta-varint for skew-compressible columns). Decode validates all
// four.
const (
	encPacked = 0
	encFlat   = 1
	encRaw    = 2
	encDelta  = 3
)

// Encode writes one frame to w in wire format.
func Encode(w io.Writer, f *Frame) error {
	var payload bytes.Buffer
	switch f.Type {
	case TypeHello:
		putU16(&payload, f.Hello.Version)
		putU32(&payload, f.Hello.Worker)
		putU32(&payload, f.Hello.P)
	case TypeData:
		if err := encodeData(&payload, &f.Data); err != nil {
			return err
		}
	case TypeDelta:
		if err := encodeDelta(&payload, &f.Delta); err != nil {
			return err
		}
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch:
		putU32(&payload, f.Round)
	case TypeTrace:
		putU64(&payload, f.Trace.TraceID)
		putU64(&payload, f.Trace.Span)
		putU32(&payload, f.Trace.Round)
		if err := putString(&payload, f.Trace.QueryID); err != nil {
			return err
		}
	case TypeAttach:
		if err := putString(&payload, f.Attach.Key); err != nil {
			return err
		}
		if err := putString(&payload, f.Attach.Store); err != nil {
			return err
		}
		putU64(&payload, f.Attach.Tuples)
		payload.WriteByte(boolByte(f.Attach.Hit))
	case TypeJoin:
		if err := putString(&payload, f.Join.Query); err != nil {
			return err
		}
		if err := putString(&payload, f.Join.View); err != nil {
			return err
		}
		payload.WriteByte(f.Join.Strategy)
		if len(f.Join.Bindings) > maxName {
			return fmt.Errorf("wire: %d bindings exceed limit", len(f.Join.Bindings))
		}
		putU16(&payload, uint16(len(f.Join.Bindings)))
		for _, b := range f.Join.Bindings {
			if err := putString(&payload, b[0]); err != nil {
				return err
			}
			if err := putString(&payload, b[1]); err != nil {
				return err
			}
		}
	case TypeGather:
		if err := putString(&payload, f.View); err != nil {
			return err
		}
	case TypeDone:
		putU32(&payload, f.Count)
	case TypeError:
		if err := putString(&payload, f.Msg); err != nil {
			return err
		}
	default:
		return fmt.Errorf("wire: encode unknown frame type %d", f.Type)
	}
	if payload.Len() > MaxPayload {
		return fmt.Errorf("wire: %s payload %d bytes exceeds %d", f.Type, payload.Len(), MaxPayload)
	}
	var hdr [5]byte
	hdr[0] = byte(f.Type)
	binary.BigEndian.PutUint32(hdr[1:], uint32(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// encodeData serializes round, dest, name and the buffer body.
func encodeData(w *bytes.Buffer, d *Data) error {
	putU32(w, d.Round)
	putU32(w, d.Dest)
	if err := putString(w, d.Rel); err != nil {
		return err
	}
	if err := putString(w, d.Retain); err != nil {
		return err
	}
	return encodeBufferBody(w, d.Buf)
}

// encodeDelta serializes round, dest, store, view, the op byte and the
// buffer body.
func encodeDelta(w *bytes.Buffer, d *Delta) error {
	putU32(w, d.Round)
	putU32(w, d.Dest)
	if err := putString(w, d.Store); err != nil {
		return err
	}
	if err := putString(w, d.View); err != nil {
		return err
	}
	w.WriteByte(boolByte(d.Del))
	return encodeBufferBody(w, d.Buf)
}

// encodeBufferBody serializes one buffer in the canonical encodings:
// arity u16, encoding byte, tuple count u32, then big-endian words
// (packed path) or big-endian row-major values (flat path). It is the
// body shared by Data and Delta payloads.
func encodeBufferBody(w *bytes.Buffer, buf *exchange.Buffer) error {
	arity := buf.Arity()
	if arity < 1 || arity > maxName {
		return fmt.Errorf("wire: buffer arity %d out of range", arity)
	}
	putU16(w, uint16(arity))
	if words, ok := buf.Words(); ok {
		w.WriteByte(encPacked)
		putU32(w, uint32(len(words)))
		var scratch [8]byte
		for _, word := range words {
			binary.BigEndian.PutUint64(scratch[:], word)
			w.Write(scratch[:])
		}
		return nil
	}
	flat := buf.Flat()
	w.WriteByte(encFlat)
	putU32(w, uint32(len(flat)/arity))
	var scratch [8]byte
	for _, v := range flat {
		binary.BigEndian.PutUint64(scratch[:], uint64(int64(v)))
		w.Write(scratch[:])
	}
	return nil
}

// Decode reads one frame from r. It returns io.EOF when r is
// exhausted before the first header byte and io.ErrUnexpectedEOF on a
// truncated frame. Allocation is bounded by the bytes actually
// available in r, not by the declared length.
func Decode(r io.Reader) (*Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, unexpected(err)
	}
	typ := Type(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return nil, fmt.Errorf("wire: %s payload length %d exceeds %d", typ, n, MaxPayload)
	}
	// Copy rather than pre-allocate: a lying length prefix on a
	// truncated stream only allocates what the stream actually holds.
	var body bytes.Buffer
	m, err := io.CopyN(&body, r, int64(n))
	if err != nil || m != int64(n) {
		return nil, unexpected(err)
	}
	return decodePayload(typ, body.Bytes())
}

// decodePayload parses one frame payload with full validation. It is
// the body shared by Decode (untrusted streams) and the control-frame
// cases of the trusted Reader.
func decodePayload(typ Type, body []byte) (*Frame, error) {
	p := &payloadReader{b: body}
	f := &Frame{Type: typ}
	switch typ {
	case TypeHello:
		f.Hello.Version = p.u16()
		f.Hello.Worker = p.u32()
		f.Hello.P = p.u32()
	case TypeData:
		decodeData(p, &f.Data)
	case TypeDelta:
		decodeDelta(p, &f.Delta)
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch:
		f.Round = p.u32()
	case TypeTrace:
		f.Trace.TraceID = p.u64()
		f.Trace.Span = p.u64()
		f.Trace.Round = p.u32()
		f.Trace.QueryID = p.str()
	case TypeAttach:
		f.Attach.Key, f.Attach.Store = p.str(), p.str()
		f.Attach.Tuples = p.u64()
		f.Attach.Hit = p.flag()
	case TypeJoin:
		f.Join.Query = p.str()
		f.Join.View = p.str()
		f.Join.Strategy = p.u8()
		nb := int(p.u16())
		for i := 0; i < nb && p.err == nil; i++ {
			f.Join.Bindings = append(f.Join.Bindings, [2]string{p.str(), p.str()})
		}
	case TypeGather:
		f.View = p.str()
	case TypeDone:
		f.Count = p.u32()
	case TypeError:
		f.Msg = p.str()
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", uint8(typ))
	}
	if p.err != nil {
		return nil, fmt.Errorf("wire: %s frame: %w", typ, p.err)
	}
	if len(p.b) != p.off {
		return nil, fmt.Errorf("wire: %s frame has %d trailing payload bytes", typ, len(p.b)-p.off)
	}
	return f, nil
}

// decodeData parses a Data payload and reconstructs the buffer
// through the validating exchange constructors.
func decodeData(p *payloadReader, d *Data) {
	d.Round = p.u32()
	d.Dest = p.u32()
	d.Rel = p.str()
	d.Retain = p.str()
	d.Buf = decodeBufferBody(p)
}

// decodeDelta parses a Delta payload with the same validation.
func decodeDelta(p *payloadReader, d *Delta) {
	d.Round = p.u32()
	d.Dest = p.u32()
	d.Store = p.str()
	d.View = p.str()
	if d.Del = p.flag(); p.err != nil {
		return
	}
	d.Buf = decodeBufferBody(p)
}

// decodeBufferBody parses one buffer body (arity, encoding, count,
// values) with full validation — the shape shared by Data and Delta
// payloads. A lying count cannot force a large allocation: every
// encoding bounds its allocation by the bytes actually present.
func decodeBufferBody(p *payloadReader) *exchange.Buffer {
	arity := int(p.u16())
	enc := p.u8()
	count := int(p.u32())
	if p.err != nil {
		return nil
	}
	if arity < 1 {
		p.fail(fmt.Errorf("arity %d", arity))
		return nil
	}
	switch enc {
	case encPacked:
		if !p.need(count * 8) {
			return nil
		}
		words := make([]uint64, count)
		for i := range words {
			words[i] = p.u64()
		}
		buf, err := exchange.NewBufferFromWords(arity, words)
		if err != nil {
			p.fail(err)
			return nil
		}
		return buf
	case encFlat:
		values := count * arity
		if !p.need(values * 8) {
			return nil
		}
		flat := make([]int, values)
		for i := range flat {
			v := int64(p.u64())
			if v < 0 || v > math.MaxInt {
				p.fail(fmt.Errorf("flat value %d out of range", v))
				return nil
			}
			flat[i] = int(v)
		}
		buf, err := exchange.NewBufferFromFlat(arity, flat)
		if err != nil {
			p.fail(err)
			return nil
		}
		return buf
	case encRaw:
		if !p.need(count * 8) {
			return nil
		}
		words := make([]uint64, count)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(p.b[p.off:])
			p.off += 8
		}
		if !slices.IsSorted(words) {
			p.fail(fmt.Errorf("raw words not sorted"))
			return nil
		}
		buf, err := exchange.NewBufferFromWords(arity, words)
		if err != nil {
			p.fail(err)
			return nil
		}
		return buf
	case encDelta:
		rest := p.b[p.off:]
		words, err := exchange.DecodeDeltaWords(rest, count)
		if err != nil {
			p.fail(err)
			return nil
		}
		p.off = len(p.b)
		buf, err := exchange.NewBufferFromWords(arity, words)
		if err != nil {
			p.fail(err)
			return nil
		}
		return buf
	default:
		p.fail(fmt.Errorf("unknown buffer encoding %d", enc))
		return nil
	}
}

// payloadReader is a bounds-checked cursor over a payload; the first
// failure sticks.
type payloadReader struct {
	b   []byte
	off int
	err error
}

// fail records the first error.
func (p *payloadReader) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// need reports whether n more bytes are available, recording an error
// if not (and on nonsensical sizes).
func (p *payloadReader) need(n int) bool {
	if p.err != nil {
		return false
	}
	if n < 0 || n > len(p.b)-p.off {
		p.fail(fmt.Errorf("truncated payload: need %d bytes, have %d", n, len(p.b)-p.off))
		return false
	}
	return true
}

func (p *payloadReader) u8() uint8 {
	if !p.need(1) {
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
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
	if !p.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *payloadReader) u32() uint32 {
	if !p.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) u64() uint64 {
	if !p.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

// str reads a uint16-length-prefixed string.
func (p *payloadReader) str() string {
	n := int(p.u16())
	if !p.need(n) {
		return ""
	}
	v := string(p.b[p.off : p.off+n])
	p.off += n
	return v
}

// boolByte is the wire form of a flag.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// putU16 appends a big-endian uint16.
func putU16(w *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	w.Write(b[:])
}

// putU32 appends a big-endian uint32.
func putU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

// putU64 appends a big-endian uint64.
func putU64(w *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// putString appends a uint16-length-prefixed string.
func putString(w *bytes.Buffer, s string) error {
	if len(s) > maxName {
		return fmt.Errorf("wire: string of %d bytes exceeds %d", len(s), maxName)
	}
	putU16(w, uint16(len(s)))
	w.WriteString(s)
	return nil
}

// unexpected normalizes a short read into io.ErrUnexpectedEOF so
// callers can distinguish "stream ended between frames" (io.EOF from
// Decode's first byte) from "stream died mid-frame".
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	if err == nil {
		return io.ErrUnexpectedEOF
	}
	return err
}
