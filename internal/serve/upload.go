package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"repro/internal/relation"
)

// This file reads a POST /datasets body. The body is read once, and the
// shape the product and bench/ send — {"name": string, "csv": {string:
// string, …}} — is decoded by hand: each CSV string is unescaped into one
// reused buffer and scanned from there into its relation's run, so no
// CSV text becomes a string or is copied twice. Any other body — a
// generator, another key (or "name" and "csv" spelled in another case,
// which encoding/json matches), a repeated key, null, a \u escape, a
// byte ≥ 0x80 or a control byte in a string, anything after the object —
// is declined and decoded by encoding/json into the same dataset or the
// same error.

// uploadLimit bounds a POST /datasets body.
const uploadLimit = 64 << 20

var errNoDataset = errors.New("one of csv or generator is required")

// readBody reads the whole request body of at most limit bytes into one
// buffer sized by its Content-Length, with a byte to spare for the read
// that meets EOF.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := int64(bytes.MinRead)
	if r.ContentLength > 0 && r.ContentLength < limit {
		n = r.ContentLength + 1
	}
	body, src := make([]byte, 0, n), http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		m, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// datasetFromBody returns the name and the database a POST /datasets
// body registers, or the error its 400 reply carries.
func datasetFromBody(body []byte) (string, *relation.Database, error) {
	u := uploadScanner{data: body}
	if !u.scan() {
		return datasetFromJSON(body)
	}
	return u.dataset()
}

// datasetFromJSON is the general decoder of a POST /datasets body:
// encoding/json into a DatasetRequest, then its CSV texts or its
// generator. It decodes with a Decoder, not Unmarshal, so what follows
// the first JSON value is ignored rather than an error.
func datasetFromJSON(body []byte) (string, *relation.Database, error) {
	var req DatasetRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return "", nil, fmt.Errorf("bad JSON body: %w", err)
	}
	var db *relation.Database
	var err error
	switch {
	case len(req.CSV) > 0 && req.Generator != nil:
		return "", nil, errors.New("use csv or generator, not both")
	case len(req.CSV) > 0:
		db, err = RunsFromCSV(req.CSV)
	case req.Generator != nil:
		db, err = Generate(*req.Generator)
	default:
		return "", nil, errNoDataset
	}
	return req.Name, db, err
}

// readCSV is one relation's CSV text as read: the relation or its error.
type readCSV struct {
	name string
	rel  *relation.Relation
	err  error
}

// databaseOf is the database the read CSV texts register: the relations
// in name order over the domain of their largest value, or the error of
// the first in that order that did not read.
func databaseOf(read []readCSV) (*relation.Database, error) {
	slices.SortFunc(read, func(a, b readCSV) int { return strings.Compare(a.name, b.name) })
	rels := make([]*relation.Relation, len(read))
	for i, r := range read {
		if r.err != nil {
			return nil, fmt.Errorf("relation %s: %w", r.name, r.err)
		}
		rels[i] = r.rel
	}
	return relation.DatabaseOf(rels...), nil
}

// uploadScanner decodes the one body shape it knows, in one pass.
type uploadScanner struct {
	data []byte
	pos  int
	buf  []byte // the last string read, unescaped; reused
	// name and read are what scan found: the dataset's name and its
	// relations in the body's order.
	name string
	read []readCSV
}

// scan reads the body as {"name": string, "csv": {string: string, …}},
// keys in either order, each at most once, whitespace anywhere; each CSV
// text is read into its relation as soon as it is unescaped. It reports
// false when the body has any other shape.
func (u *uploadScanner) scan() bool {
	seenName, seenCSV := false, false
	ok := u.object(func(key []byte) bool {
		switch {
		case string(key) == "name" && !seenName:
			seenName = true
			s, ok := u.str()
			u.name = string(s)
			return ok
		case string(key) == "csv" && !seenCSV:
			seenCSV = true
			return u.object(func(key []byte) bool {
				rel := string(key)
				if slices.ContainsFunc(u.read, func(r readCSV) bool { return r.name == rel }) {
					return false
				}
				text, ok := u.str()
				if ok {
					r, err := relation.ReadCSV(text, rel)
					u.read = append(u.read, readCSV{name: rel, rel: r, err: err})
				}
				return ok
			})
		}
		return false
	})
	u.space()
	return ok && u.pos == len(u.data)
}

// dataset returns what a scanned body registers.
func (u *uploadScanner) dataset() (string, *relation.Database, error) {
	if len(u.read) == 0 {
		return "", nil, errNoDataset
	}
	db, err := databaseOf(u.read)
	if err != nil {
		return "", nil, err
	}
	return u.name, db, nil
}

// object reads a JSON object whose every member value member reads
// after its key, and reports whether it was one.
func (u *uploadScanner) object(member func(key []byte) bool) bool {
	if !u.skip('{') {
		return false
	}
	if u.skip('}') {
		return true
	}
	for {
		key, ok := u.str()
		if !ok || !u.skip(':') || !member(key) {
			return false
		}
		if u.skip('}') {
			return true
		}
		if !u.skip(',') {
			return false
		}
	}
}

// str reads a JSON string into buf, unescaped, and returns it; the slice
// is valid until the next call. It reports false on anything but a string
// of printable ASCII and two-character escapes. The closing quote is found
// first, so buf grows at most once.
func (u *uploadScanner) str() ([]byte, bool) {
	if !u.skip('"') {
		return nil, false
	}
	end := u.pos
	for {
		q := bytes.IndexByte(u.data[end:], '"')
		if q < 0 {
			return nil, false
		}
		end += q
		escapes := 0 // a quote after an odd run of backslashes is escaped
		for escapes < end-u.pos && u.data[end-1-escapes] == '\\' {
			escapes++
		}
		if escapes%2 == 0 {
			break
		}
		end++
	}
	if cap(u.buf) < end-u.pos {
		u.buf = make([]byte, 0, end-u.pos)
	}
	s, buf := u.data[u.pos:end], u.buf[:0]
	if !printable(s) {
		return nil, false
	}
	for len(s) > 0 {
		k := bytes.IndexByte(s, '\\')
		if k < 0 {
			buf = append(buf, s...)
			break
		}
		// s cannot end in the backslash: its closing quote would be escaped.
		c := unescape[s[k+1]]
		if c == 0 {
			return nil, false
		}
		buf = append(append(buf, s[:k]...), c)
		s = s[k+2:]
	}
	u.pos, u.buf = end+1, buf
	return buf, true
}

// printable reports whether s is printable ASCII: no control byte and
// none ≥ 0x80. It reads eight bytes a word: a byte below 0x20, the first
// such of a word, borrows in w − 0x20·lo and sets its top bit there; a
// byte ≥ 0x80 has its own top bit set.
func printable(s []byte) bool {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		if w := binary.LittleEndian.Uint64(s); (w|(w-0x20*lo))&hi != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < 0x20 || c >= 0x80 {
			return false
		}
	}
	return true
}

// unescape maps the character after a backslash to the byte it stands
// for; 0 marks \u and every character JSON does not escape.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// skip moves past whitespace and then c, and reports whether c was there.
func (u *uploadScanner) skip(c byte) bool {
	u.space()
	if u.pos < len(u.data) && u.data[u.pos] == c {
		u.pos++
		return true
	}
	return false
}

// space moves past JSON whitespace.
func (u *uploadScanner) space() {
	for u.pos < len(u.data) {
		switch u.data[u.pos] {
		case ' ', '\t', '\n', '\r':
			u.pos++
		default:
			return
		}
	}
}
