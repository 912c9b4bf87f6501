package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// This file reads and writes the integer CSV a relation is uploaded as:
// what encoding/csv reads with TrimLeadingSpace, every field of a record
// a decimal integer ≥ 1 as strconv.Atoi reads it (README.md, "Uploading
// a dataset"). encoding/csv reads the header. A plain record — at most
// 18 decimal digits per field, no zero value, commas between fields and
// a bare \n or the end of the input after the last — is read into the
// row as its digits are scanned. Any other record is split into fields
// byte by byte and each is read with strconv.Atoi, except one quoted as
// no integer needs (an escaped quote, a quote open past its line, text
// after a closing quote), which encoding/csv reads too — and so rejects
// as it always did.

// ReadCSV parses a relation from CSV text: the first record is the
// header naming the attributes, each further record is one tuple of
// positive integers. The relation name is supplied by the caller (CSV
// has no natural place for it). The relation holds one sealed run, every
// occurrence kept: its rows come back in sorted order, not file order.
// The run keeps nothing of data.
func ReadCSV(data []byte, name string) (*Relation, error) {
	s, err := newCSVScanner(data)
	if err != nil {
		return nil, err
	}
	run := NewRun(len(s.row))
	run.Grow(s.rows)
	if err := s.each(run.Append); err != nil {
		return nil, err
	}
	run.Seal() // a file already in order costs one linear check
	return FromRun(name, s.attrs, run), nil
}

// ReadCSVTuples is ReadCSV keeping the file's order: the rows are Tuples
// over one backing array, sealed into the run on first use. It is for a
// caller that addresses rows by their position in the file —
// serve.DatabaseFromCSV, through which bench/ draws its deltas by row
// index.
func ReadCSVTuples(data []byte, name string) (*Relation, error) {
	s, err := newCSVScanner(data)
	if err != nil {
		return nil, err
	}
	a := len(s.row)
	flat := make([]int, 0, a*s.rows)
	if err := s.each(func(row Tuple) { flat = append(flat, row...) }); err != nil {
		return nil, err
	}
	rel := New(name, s.attrs...)
	rel.Tuples = make([]Tuple, len(flat)/a)
	for i := range rel.Tuples {
		rel.Tuples[i] = Tuple(flat[i*a : (i+1)*a : (i+1)*a])
	}
	return rel, nil
}

// csvRecord reads the one record at data[pos:] with encoding/csv and
// returns its fields and where the next record starts.
func csvRecord(data []byte, pos int) ([]string, int, error) {
	cr := csv.NewReader(bytes.NewReader(data[pos:]))
	cr.TrimLeadingSpace = true
	record, err := cr.Read()
	return record, pos + int(cr.InputOffset()), err
}

// csvScanner reads the records after the header, one row at a time.
type csvScanner struct {
	data  []byte
	pos   int
	attrs []string
	// rows bounds the record count from above: one per line end, and one
	// more for a last line without one.
	rows int
	// row is the last record's values, reused; its length is the arity.
	row Tuple
	// line numbers the last record as errors name it: the header is 1.
	line   int
	fields [][]byte // the last general record's fields, reused
}

// newCSVScanner reads the header of data.
func newCSVScanner(data []byte) (*csvScanner, error) {
	attrs, pos, err := csvRecord(data, 0)
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	return &csvScanner{
		data: data, pos: pos, attrs: attrs, line: 1,
		rows: bytes.Count(data[pos:], []byte{'\n'}) + 1,
		row:  make(Tuple, len(attrs)),
	}, nil
}

// each calls yield with every record's row, in file order; the row is
// reused from one call to the next.
func (s *csvScanner) each(yield func(row Tuple)) error {
	for {
		ok, err := s.record()
		if !ok {
			return err
		}
		yield(s.row)
	}
}

// record reads the next record into row and reports false at the end of
// the input.
func (s *csvScanner) record() (bool, error) {
	s.line++
	if s.plain() {
		return true, nil
	}
	ok, err := s.next()
	if err != nil {
		return false, fmt.Errorf("relation: reading CSV line %d: %w", s.line, err)
	}
	if !ok {
		return false, nil
	}
	if len(s.fields) != len(s.row) {
		return false, fmt.Errorf("relation: CSV line %d has %d fields, header has %d: %w",
			s.line, len(s.fields), len(s.row), csv.ErrFieldCount)
	}
	for i, f := range s.fields {
		v, err := strconv.Atoi(string(f)) // no allocation: the string does not escape
		if err != nil {
			return false, fmt.Errorf("relation: CSV line %d field %d: %w", s.line, i+1, err)
		}
		if v < 1 {
			return false, fmt.Errorf("relation: CSV line %d field %d: value %d outside domain [n]", s.line, i+1, v)
		}
		s.row[i] = v
	}
	return true, nil
}

// plain reads the record at pos into row when it is plain — every field
// 1 to 18 decimal digits of a value ≥ 1, one comma between fields, a \n
// or the end of the input after the last — and reports whether it was.
// Eighteen digits cannot overflow an int, and such a record reads the
// same through next and strconv.Atoi. Anything else moves nothing.
func (s *csvScanner) plain() bool {
	data, pos := s.data, s.pos
	if pos >= len(data) {
		return false
	}
	for i := range s.row {
		if i > 0 {
			if pos >= len(data) || data[pos] != ',' {
				return false
			}
			pos++
		}
		v, start := 0, pos
		for ; pos < len(data) && data[pos]-'0' <= 9; pos++ {
			v = v*10 + int(data[pos]-'0')
		}
		if n := pos - start; n == 0 || n > 18 || v == 0 {
			return false
		}
		s.row[i] = v
	}
	if pos < len(data) {
		if data[pos] != '\n' {
			return false
		}
		pos++
	}
	s.pos = pos
	return true
}

// next reads the next record's fields, skipping blank lines, and reports
// false at the end of the input. A field is a slice of its line.
func (s *csvScanner) next() (bool, error) {
	for s.pos < len(s.data) {
		start, line := s.pos, s.data[s.pos:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, s.pos = line[:i], s.pos+i+1
		} else {
			s.pos = len(s.data)
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1] // CRLF, or a CR ending the input
		}
		if len(line) == 0 {
			continue
		}
		s.fields = s.fields[:0]
		for {
			if len(line) > 0 && (line[0] <= ' ' || line[0] >= utf8.RuneSelf) {
				line = bytes.TrimLeftFunc(line, unicode.IsSpace)
			}
			var field []byte
			if len(line) > 0 && line[0] == '"' {
				end := bytes.IndexByte(line[1:], '"') + 1
				if end == 0 || end+1 < len(line) && line[end+1] != ',' {
					return s.slow(start)
				}
				field, line = line[1:end], line[end+1:]
			} else {
				i := bytes.IndexByte(line, ',')
				if i < 0 {
					i = len(line)
				}
				if field, line = line[:i], line[i:]; bytes.IndexByte(field, '"') >= 0 {
					return s.slow(start) // a bare quote
				}
			}
			s.fields = append(s.fields, field)
			if len(line) == 0 {
				return true, nil
			}
			line = line[1:] // the comma
		}
	}
	return false, nil
}

// slow reads the record at start with encoding/csv and moves past it.
func (s *csvScanner) slow(start int) (bool, error) {
	record, next, err := csvRecord(s.data, start)
	s.pos, s.fields = next, s.fields[:0]
	for _, f := range record {
		s.fields = append(s.fields, []byte(f))
	}
	return err == nil, err
}

// WriteCSV renders the relation as CSV with an attribute header.
func WriteCSV(w io.Writer, rel *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.Attrs); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	record := make([]string, rel.Arity())
	for _, t := range rel.Rows() {
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
	if run := r.memo(); run != nil {
		return max(0, run.MaxValue())
	}
	mx := 0
	for _, t := range r.Tuples {
		for _, v := range t {
			mx = max(mx, v)
		}
	}
	return mx
}
