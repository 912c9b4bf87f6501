package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
)

// uploadSeeds are bodies at the edges of the one-pass decoder: the shape
// it reads (read), what it must decline, and CSV texts only the general
// CSV route reads.
var uploadSeeds = []struct {
	body string
	read bool
}{
	{`{"name":"tri","csv":{"S1":"x1,x2\n1,2\n2,3\n","S2":"x2,x3\n2,1\n3,3\n","S3":"x3,x1\n1,1\n3,2\n"}}`, true},
	{` { "csv" : { "R" : "x,y\n1,2\n" } , "name" : "flip" } `, true},
	{`{"name":"crlf","csv":{"R":"x,y\r\n1,2\r\n3,4\r\n"}}`, true},
	{`{"name":"u","csv":{"R":"x,y\n\u0031,2\n"}}`, false},
	{`{"name":"sl\/ash","csv":{"R\/S":"x,y\n1,2\n"}}`, true},
	{"{\"name\":\"bom\",\"csv\":{\"R\":\"\ufeffx,y\\n1,2\\n\"}}", false},
	{"{\"name\":\"utf\",\"csv\":{\"R\":\"\u00e9,y\\n1,2\\n\"}}", false},
	{`{"name":"q","csv":{"R":"\"x\",\"y\"\n\"1\",\"2\"\n\"3\",4\n"}}`, true},
	{`{"name":"sign","csv":{"R":"x,y\n+5,007\n"}}`, true},
	{`{"Name":"case","csv":{"R":"x,y\n1,2\n"}}`, false},
	{`{"name":"case","CSV":{"R":"x,y\n1,2\n"}}`, false},
	{`{"name":"a","name":"b","csv":{"R":"x,y\n1,2\n"}}`, false},
	{`{"name":"dup","csv":{"R":"x,y\n1,2\n","R":"x,y\n3,4\n"}}`, false},
	{`{"name":"dup","csv":{"R":"x,y\n1,2\n"},"csv":{"S":"x,y\n3,4\n"}}`, false},
	{`{"name":"gen","generator":{"family":"C3","n":10}}`, false},
	{`{"name":"both","csv":{"R":"x,y\n1,2\n"},"generator":{"family":"C3","n":10}}`, false},
	{`{"name":"k","csv":{"R":"x,y\n1,2\n"},"extra":1}`, false},
	{`{"name":null,"csv":{"R":"x,y\n1,2\n"}}`, false},
	{`{"name":"n","csv":null}`, false},
	{`{"name":"n","csv":{"R":null}}`, false},
	{`{"name":"t","csv":{"R":"x,y\n1,2\n"}}garbage`, false},
	{`{"name":"t","csv":{"R":"x,y\n1,2\n"}} {}`, false},
	{`{"name":"empty","csv":{}}`, true},
	{`{"name":"none"}`, true},
	{`{}`, true},
	{`{"name":"trunc","csv":{"R":"x,y\n1,2`, false},
	{`{"name":"trunc","csv":{"R":"x,y\n1,2\n"}`, false},
	{`{"name":"bad","csv":{"B":"x,y\n1,a\n","A":"x,y\n0,1\n"}}`, true},
	{`{"name":"arity","csv":{"R":"x,y\n1,2,3\n"}}`, true},
	{`{"name":"esc","csv":{"R":"x,y\n1,2\\\n"}}`, true},
	{"{\"name\":\"ctl\",\"csv\":{\"R\":\"x,\ty\\n1,2\\n\"}}", false},
	{`{"name":"big","csv":{"R":"x,y\n1,2\n4294967296,3\n"}}`, true},
	{`[]`, false},
	{``, false},
}

// FuzzDatasetBody holds the one-pass decoder to the general one: a body
// it does not decline registers what encoding/json and RunsFromCSV make
// of the same bytes — the same name, headers, rows (as multisets) and
// domain — or fails with the same error text.
func FuzzDatasetBody(f *testing.F) {
	for _, seed := range uploadSeeds {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		u := uploadScanner{data: body}
		if !u.scan() {
			return
		}
		name, db, err := u.dataset()
		refName, ref, refErr := datasetFromJSON(body)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%q: error %v, general decoder %v", body, err, refErr)
		}
		if err != nil {
			return
		}
		if name != refName || db.N != ref.N || !slices.Equal(db.Names(), ref.Names()) {
			t.Fatalf("%q: %q over [%d] with %v, general decoder %q over [%d] with %v",
				body, name, db.N, db.Names(), refName, ref.N, ref.Names())
		}
		for _, rel := range db.Names() {
			got, _ := db.Relation(rel)
			want, _ := ref.Relation(rel)
			if !slices.Equal(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows(), want.Rows()) {
				t.Fatalf("%q: relation %s = %q %v, general decoder %q %v", body, rel, got.Attrs, got.Rows(), want.Attrs, want.Rows())
			}
		}
	})
}

// TestUploadScanShape: the one-pass decoder reads the bodies the product
// and bench/ send — encoding/json's rendering of a DatasetRequest, in
// either key order, with whitespace — and declines every other shape.
func TestUploadScanShape(t *testing.T) {
	marshalled, err := json.Marshal(DatasetRequest{Name: "tri", CSV: map[string]string{
		"S1": "x1,x2\n1,2\n", "S2": "x2,x3\n2,1\n", "S3": "x3,x1\n1,1\n",
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range append(uploadSeeds, struct {
		body string
		read bool
	}{string(marshalled), true}) {
		u := uploadScanner{data: []byte(seed.body)}
		if got := u.scan(); got != seed.read {
			t.Errorf("scan(%q) = %v, want %v", seed.body, got, seed.read)
		}
	}
	u := uploadScanner{data: marshalled}
	u.scan()
	name, db, err := u.dataset()
	if err != nil || name != "tri" || db.N != 2 || !slices.Equal(db.Names(), []string{"S1", "S2", "S3"}) {
		t.Fatalf("dataset() = %q, %v, %v; want tri over [2] with S1, S2, S3", name, db, err)
	}
}

// TestReadBody: the body comes back whole whether its Content-Length is
// right, missing or short, and one past the limit is the MaxBytesReader's
// error.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 200)
	for _, length := range []int64{int64(len(body)), -1, 10} {
		r := httptest.NewRequest(http.MethodPost, "/datasets", bytes.NewReader(body))
		r.ContentLength = length
		got, err := readBody(httptest.NewRecorder(), r, int64(len(body)))
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("Content-Length %d: %d bytes, %v; want the %d-byte body", length, len(got), err, len(body))
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/datasets", bytes.NewReader(body))
	if _, err := readBody(httptest.NewRecorder(), r, int64(len(body))-1); err == nil || err.Error() != "http: request body too large" {
		t.Errorf("a body past the limit: error %v, want http: request body too large", err)
	}
}
