package exchange

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file is the columnar bit-width reduction of the exchange layer:
// a delta + varint codec over the packed word payload of a sealed
// relation.Run. Sealed packed runs are sorted uint64 slices, and the
// packing scheme puts values most-significant-first, so the join
// column that drives partitioning occupies the high bits of every
// word. Skewed inputs (Zipf heavy hitters) therefore produce long runs
// of nearly-equal words whose successive differences are tiny, and
// encoding the first word plus non-negative deltas as uvarints ships
// the same run in a fraction of the raw 8 bytes per tuple.
//
// The codec is exact and order-preserving: deltas of a sorted slice
// are non-negative, so decoding reconstructs the identical sorted
// words. MPC(ε) statistics are unaffected by construction — the model
// accounts bits at the configured per-value width on the coordinator,
// never from transport byte counts — so the same query reports
// byte-identical round stats whether or not frames travel compressed.

// DeltaWordsSize returns the exact encoded size in bytes of
// AppendDeltaWords(nil, words). It assumes words is sorted
// (non-decreasing); the result is meaningless otherwise.
func DeltaWordsSize(words []uint64) int {
	if len(words) == 0 {
		return 0
	}
	size := uvarintLen(words[0])
	prev := words[0]
	for _, w := range words[1:] {
		size += uvarintLen(w - prev)
		prev = w
	}
	return size
}

// AppendDeltaWords appends the delta-varint encoding of a sorted word
// slice to dst and returns the extended slice: the first word as a
// uvarint, then each successive non-negative difference as a uvarint.
// The caller must pass a sorted (non-decreasing) slice — sealed packed
// runs satisfy this — or decoding will not reproduce the input.
func AppendDeltaWords(dst []byte, words []uint64) []byte {
	if len(words) == 0 {
		return dst
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], words[0])
	dst = append(dst, scratch[:n]...)
	prev := words[0]
	for _, w := range words[1:] {
		n = binary.PutUvarint(scratch[:], w-prev)
		dst = append(dst, scratch[:n]...)
		prev = w
	}
	return dst
}

// DecodeDeltaWords decodes count delta-varint words from b, returning
// the reconstructed sorted slice. It fails on truncated or oversized
// varints, on trailing bytes, and on accumulated overflow past the
// uint64 range, so a hostile payload cannot smuggle in an unsorted or
// wrapped sequence: decoded words are non-decreasing by construction.
// Allocation is bounded by count ≤ len(b), since every encoded word
// occupies at least one byte.
func DecodeDeltaWords(b []byte, count int) ([]uint64, error) {
	if count < 0 {
		return nil, fmt.Errorf("exchange: delta word count %d", count)
	}
	if count == 0 {
		if len(b) != 0 {
			return nil, fmt.Errorf("exchange: %d trailing delta bytes", len(b))
		}
		return nil, nil
	}
	if count > len(b) {
		return nil, fmt.Errorf("exchange: delta count %d exceeds %d payload bytes", count, len(b))
	}
	words := make([]uint64, count)
	cur, off := uint64(0), 0
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, fmt.Errorf("exchange: bad delta varint at word %d", i)
		}
		off += n
		if i == 0 {
			cur = v
		} else {
			next := cur + v
			if next < cur {
				return nil, fmt.Errorf("exchange: delta overflow at word %d", i)
			}
			cur = next
		}
		words[i] = cur
	}
	if off != len(b) {
		return nil, fmt.Errorf("exchange: %d trailing delta bytes", len(b)-off)
	}
	return words, nil
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
