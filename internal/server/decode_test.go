package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// genericBatchParse is the strict reference path the fast parser must be a
// subset of: DisallowUnknownFields plus the trailing-data check, exactly as
// readJSON applies them.
func genericBatchParse(body []byte) (BatchRequest, error) {
	var out BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	err := readJSON(dec, &out)
	return out, err
}

// TestParseBatchRequestSubset pins the fast parser's contract: everything
// it accepts, the generic decoder accepts with the identical result; and
// the inputs it must reject (escapes, unknown fields, a repeated "requests"
// key, malformed JSON) fall through to the generic path.
func TestParseBatchRequestSubset(t *testing.T) {
	accept := []string{
		`{"requests":[{"code":"4801d8","arch":"SKL","mode":"loop"}]}`,
		`{"requests":[{"code":"4801d8","arch":"SKL"},{"code_b64":"SAHY","arch":"ICL","mode":"unroll"}],"concurrency":4}`,
		`{"requests":[]}`,
		`{"requests":[{}]}`,
		`{}`,
		` { "requests" : [ { "code" : "ab" } ] , "concurrency" : 12 } ` + "\n\t",
		`{"concurrency":-3,"requests":[{"arch":""}]}`,
		`{"concurrency":0}`,
		`{"requests":[{"code":"zz not hex","arch":"?!# ~"}]}`,
		// Duplicate scalar keys: last value wins, like encoding/json.
		`{"requests":[{"code":"aa","code":"bb"}]}`,
		`{"concurrency":1,"concurrency":2}`,
	}
	for _, body := range accept {
		var got BatchRequest
		if !parseBatchRequest([]byte(body), &got) {
			t.Errorf("fast parser rejected canonical input %q", body)
			continue
		}
		want, err := genericBatchParse([]byte(body))
		if err != nil {
			t.Errorf("fast parser accepted %q, generic decoder errors: %v", body, err)
			continue
		}
		// Empty non-nil vs nil slices carry the same wire meaning.
		if len(got.Requests) == 0 {
			got.Requests = nil
		}
		if len(want.Requests) == 0 {
			want.Requests = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parse mismatch for %q:\n fast: %+v\n generic: %+v", body, got, want)
		}
	}

	reject := []string{
		``,
		`[]`,
		`{"requests":[{"code":"4801d8"}]} trailing`,
		`{"requests":[{"code":"41\u0041"}]}`,             // escape: decoded value differs from raw bytes
		`{"requests":[{"code":"a\\"b"}]}`,                // escaped quote
		`{"requests":[{"unknown":"x"}]}`,                 // DisallowUnknownFields must report it
		`{"extra":1}`,                                    // unknown top-level field
		`{"requests":[{"code":"café"}]}`,                 // non-ASCII
		`{"concurrency":1.5}`,                            // not an int
		`{"concurrency":1e3}`,                            // exponent
		`{"concurrency":01}`,                             // leading zero (invalid JSON)
		`{"concurrency":99999999999999999999}`,           // overflow
		`{"requests":null}`,                              // null array
		`{"requests":[{"code":null}]}`,                   // null string
		`{"requests":[{"code":"aa"}`,                     // truncated
		`{"requests":[{"code":"aa"},]}`,                  // trailing comma
		`{"requests":[{"code":"aa"}],}`,                  // trailing comma in object
		`{"requests":{"code":"aa"}}`,                     // object where array expected
		`{"requests":[{"code":"aa"}],"concurrency":"2"}`, // string where int expected
		// A repeated "requests" array: encoding/json merges it into the
		// elements the first one decoded, field by field.
		`{"requests":[{"code":"aa"}],"requests":[{"code":"bb"}]}`,
		dupRequestsBody,
	}
	for _, body := range reject {
		var got BatchRequest
		if parseBatchRequest([]byte(body), &got) {
			t.Errorf("fast parser accepted out-of-subset input %q", body)
		}
	}

	// Why the fast parser must hand a repeated array over: the generic
	// decoder merges the second array into the first one's elements.
	got, err := genericBatchParse([]byte(dupRequestsBody))
	want := []BlockRequest{{Code: "4801d8", Arch: "SKL", Mode: "loop"}}
	if err != nil || !reflect.DeepEqual(got.Requests, want) {
		t.Errorf("generic decode of %q = %+v, %v; want %+v", dupRequestsBody, got.Requests, err, want)
	}
}

// dupRequestsBody repeats the "requests" key with disjoint fields.
const dupRequestsBody = `{"requests":[{"code":"4801d8","arch":"SKL"}],"requests":[{"mode":"loop"}]}`

// FuzzParseBatchRequest: wherever the fast parser accepts a body, the
// generic decoder accepts it too and yields the same BatchRequest. Each
// input is parsed into a pooled batchScratch, released afterwards exactly
// as the handler does, so a field left over from an earlier input would
// show up as a mismatch. The seed corpus is testdata/fuzz/FuzzParseBatchRequest.
func FuzzParseBatchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := batchScratchPool.Get().(*batchScratch)
		defer sc.release()
		buf, err := sc.readBody(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if !parseBatchRequest(buf, &sc.wire) {
			return // out of subset: the handler re-parses with readJSON
		}
		want, err := genericBatchParse(body)
		if err != nil {
			t.Fatalf("fast parser accepted %q, generic decoder errors: %v", body, err)
		}
		// Empty non-nil and nil request lists carry the same wire meaning.
		if got := sc.wire; got.Concurrency != want.Concurrency || !slices.Equal(got.Requests, want.Requests) {
			t.Fatalf("parse mismatch for %q:\n fast: %+v\n generic: %+v", body, got, want)
		}
	})
}

// TestParseBatchRequestRandomized cross-checks the fast parser against the
// generic decoder on marshaled random requests (always in-subset for ASCII
// payloads) and on adversarial strings (accepted only when equal).
func TestParseBatchRequestRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ascii := "0123456789abcdefSKLICL _~!#-"
	randStr := func(alphabet string) string {
		var b strings.Builder
		for i, n := 0, rng.Intn(10); i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	adversarial := ascii + "\"\\\néé"
	for iter := 0; iter < 300; iter++ {
		alphabet := ascii
		if iter%3 == 0 {
			alphabet = adversarial
		}
		// Always at least one request: a nil slice marshals as
		// "requests":null, which is deliberately out of subset.
		req := BatchRequest{Concurrency: rng.Intn(9) - 2}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			req.Requests = append(req.Requests, BlockRequest{
				Code: randStr(alphabet), CodeB64: randStr(alphabet),
				Arch: randStr(alphabet), Mode: randStr(alphabet),
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got BatchRequest
		ok := parseBatchRequest(body, &got)
		want, gerr := genericBatchParse(body)
		if !ok {
			if alphabet == ascii {
				t.Fatalf("fast parser rejected plain-ASCII marshaled request %s", body)
			}
			continue // out of subset: the generic fallback handles it
		}
		if gerr != nil {
			t.Fatalf("fast parser accepted %s, generic decoder errors: %v", body, gerr)
		}
		if len(got.Requests) == 0 {
			got.Requests = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parse mismatch for %s:\n fast: %+v\n generic: %+v", body, got, want)
		}
	}
}

// TestBatchScratchReuseNoStaleFields drives the pooled scratch through a
// decode with every field set, then a second decode where fields are absent,
// asserting nothing leaks between requests through the reused backing array.
func TestBatchScratchReuseNoStaleFields(t *testing.T) {
	sc := batchScratchPool.Get().(*batchScratch)
	full := `{"requests":[{"code":"aa","code_b64":"x","arch":"SKL","mode":"loop"}],"concurrency":7}`
	if !parseBatchRequest([]byte(full), &sc.wire) {
		t.Fatal("fast parser rejected full request")
	}
	sc.release()

	sc2 := batchScratchPool.Get().(*batchScratch)
	defer sc2.release()
	sparse := `{"requests":[{"arch":"ICL"}]}`
	if !parseBatchRequest([]byte(sparse), &sc2.wire) {
		t.Fatal("fast parser rejected sparse request")
	}
	got := sc2.wire
	if got.Concurrency != 0 {
		t.Errorf("stale concurrency leaked: %d", got.Concurrency)
	}
	if r := got.Requests[0]; r.Code != "" || r.CodeB64 != "" || r.Mode != "" || r.Arch != "ICL" {
		t.Errorf("stale block fields leaked: %+v", r)
	}
}
