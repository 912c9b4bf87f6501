package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvChunkRows caps how many tuples ReadCSV carves from one backing
// array: one allocation per chunk instead of one per row, with each
// tuple capacity-limited to its own cells so an append to one can
// never reach its neighbour. Chunks start small and double, so a
// ten-row file does not pin a thousand-row array.
const csvChunkRows = 1024

// ReadCSV parses a relation from CSV: the first record is the header
// naming the attributes, each further record is one tuple of positive
// integers. The relation name is supplied by the caller (CSV has no
// natural place for it).
func ReadCSV(r io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("relation: empty CSV header")
	}
	// The reader reuses header's backing array from the next Read on:
	// New copies the names, the loop keeps only the arity.
	rel := New(name, header...)
	arity := len(header)
	var chunk []int // backing array the next tuples are carved from
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(record) != arity {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, header has %d",
				line, len(record), arity)
		}
		if len(chunk) < arity {
			chunk = make([]int, arity*min(max(len(rel.Tuples), 16), csvChunkRows))
		}
		t := Tuple(chunk[:arity:arity])
		chunk = chunk[arity:]
		for i, field := range record {
			v, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d field %d: %w", line, i+1, err)
			}
			if v < 1 {
				return nil, fmt.Errorf("relation: CSV line %d field %d: value %d outside domain [n]",
					line, i+1, v)
			}
			t[i] = v
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel, nil
}

// WriteCSV renders the relation as CSV with an attribute header.
func WriteCSV(w io.Writer, rel *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.Attrs); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	record := make([]string, rel.Arity())
	for _, t := range rel.Tuples {
		for i, v := range t {
			record[i] = strconv.Itoa(v)
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("relation: writing CSV tuple: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxValue returns the largest value appearing in the relation (the
// minimal domain size that contains it); 0 for an empty relation.
func (r *Relation) MaxValue() int {
	mx := 0
	for _, t := range r.Tuples {
		for _, v := range t {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}
