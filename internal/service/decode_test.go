package service

// encoding/json is the reference for the request decoder: on any bytes,
// decodeBody must give the value and error json.Decoder gives.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

const (
	canonicalCandidates = `[{"id":"a","score":2,"group":"x","attrs":{"shadow":"s1","team":"t"}},` +
		`{"id":"b","score":-1.5e-3,"group":"y","attrs":{"shadow":"s1"}},{"id":"c","score":0,"group":"x"}]`
	canonicalRank = `{"candidates":` + canonicalCandidates + `,"algorithm":"mallows-best","central":"weak",` +
		`"criterion":"ndcg","noise":"mallows","theta":1,"samples":15,"tolerance":0.1,"top_k":2,` +
		`"weak_k":3,"sigma":0,"seed":-42}`
	canonicalMembership = `{"candidates":[{"id":"a","score":2,"group":"x","membership":{"x":0.25,"y":0.75}},` +
		`{"id":"b","score":1,"group":"y","membership":{"y":1}}],"seed":7}`
	canonicalBatch = `{"requests":[` + canonicalRank + `,` + canonicalMembership +
		`,{"candidates":[],"algorithm":"detconstsort"}],"webhook_url":"http://127.0.0.1:9/hook"}`
)

// decodeCase is one body with the request type it is meant as and
// whether the fast path must take it (true) or give up (false).
type decodeCase struct {
	name  string
	body  string
	batch bool
	fast  bool
}

// decodeCases lists the canonical bodies and every input that must
// send the fast path to encoding/json. It seeds FuzzDecodeRequest too.
func decodeCases() []decodeCase {
	cases := []decodeCase{
		{"canonical single", canonicalRank, false, true},
		{"canonical membership", canonicalMembership, false, true},
		{"canonical batch", canonicalBatch, true, true},
		{"whitespace", " {\n\t\"candidates\" : [ { \"id\" : \"a\" , \"score\" : 1 , \"group\" : \"x\" , \"attrs\" : { } } ] }\r\n", false, true},
		{"empty objects and arrays", `{"candidates":[{"id":"a","score":1,"group":"x","attrs":{},"membership":{}}]}`, false, true},
		{"empty request", `{}`, false, true},
		{"empty batch", `{"requests":[]}`, true, true},
		{"utf-8", `{"candidates":[{"id":"café","score":1,"group":"ß","attrs":{"ключ":"значение"}}]}`, false, true},
		{"repeated attribute key", `{"candidates":[{"id":"a","score":1,"group":"x","attrs":{"k":"1","k":"2"}}]}`, false, true},
		{"trailing bytes", canonicalRank + `garbage{`, false, true},

		{"unicode escape", `{"candidates":[{"id":"caf\u00e9","score":1,"group":"x"}]}`, false, false},
		{"quote escape", `{"candidates":[{"id":"a\"b","score":1,"group":"x"}]}`, false, false},
		{"key ID", `{"candidates":[{"ID":"a","score":1,"group":"x"}]}`, false, false},
		{"key long s", `{"candidates":[{"id":"a","ſcore":1,"group":"x"}]}`, false, false},
		{"repeated candidates", `{"candidates":[{"id":"a","score":1,"group":"x"},{"id":"b","score":2,"group":"y"}],` +
			`"candidates":[{"id":"c"}],"candidates":[{"score":3},{"group":"z"},{"id":"d","score":4,"group":"x"}]}`, false, false},
		{"repeated id", `{"candidates":[{"id":"a","id":"b","score":1,"group":"x"}]}`, false, false},
		{"unknown key", `{"candidates":[{"id":"a","score":1,"group":"x"}],"colour":"red"}`, false, false},
		{"top_k fraction", `{"candidates":[{"id":"a","score":1,"group":"x"}],"top_k":1.0}`, false, false},
		{"samples exponent", `{"candidates":[{"id":"a","score":1,"group":"x"}],"samples":1e2}`, false, false},
		{"score out of range", `{"candidates":[{"id":"a","score":1e400,"group":"x"}]}`, false, false},
		{"seed overflow", `{"seed":9223372036854775808}`, false, false},
		{"invalid utf-8", "{\"candidates\":[{\"id\":\"a\xff\",\"score\":1,\"group\":\"x\"}]}", false, false},
		{"control character", "{\"candidates\":[{\"id\":\"a\tb\",\"score\":1,\"group\":\"x\"}]}", false, false},
		{"bom", "\xef\xbb\xbf" + canonicalRank, false, false},
		{"top-level null", `null`, false, false},
		{"top-level array", `[]`, false, false},
		{"top-level string", `"x"`, false, false},
		{"empty body", ``, false, false},
		{"truncated", canonicalRank[:len(canonicalRank)/2], false, false},
		{"trailing comma", `{"candidates":[{"id":"a","score":1,"group":"x"},]}`, false, false},
		{"leading zero", `{"seed":01}`, false, false},
		{"plus sign", `{"theta":+1}`, false, false},
		{"bare fraction", `{"theta":.5}`, false, false},
		{"string for number", `{"theta":"1"}`, false, false},
		{"number for string", `{"algorithm":1}`, false, false},
		{"bool", `{"candidates":[{"id":"a","score":true,"group":"x"}]}`, false, false},
		{"single request as batch", canonicalRank, true, false},
		{"batch as single request", canonicalBatch, false, false},
	}
	for _, key := range []string{"candidates", "algorithm", "central", "criterion", "noise",
		"theta", "samples", "tolerance", "top_k", "weak_k", "sigma", "seed"} {
		cases = append(cases, decodeCase{"null " + key, `{"` + key + `":null}`, false, false})
	}
	for _, key := range []string{"id", "score", "group", "attrs", "membership"} {
		cases = append(cases, decodeCase{"null candidate " + key,
			`{"candidates":[{"id":"a","score":1,"group":"x","` + key + `":null}]}`, false, false})
	}
	cases = append(cases,
		decodeCase{"null candidate", `{"candidates":[null]}`, false, false},
		decodeCase{"null attribute", `{"candidates":[{"id":"a","attrs":{"k":null}}]}`, false, false},
		decodeCase{"null membership", `{"candidates":[{"id":"a","membership":{"x":null}}]}`, false, false},
		decodeCase{"null requests", `{"requests":null}`, true, false},
		decodeCase{"null request", `{"requests":[null]}`, true, false},
		decodeCase{"null webhook_url", `{"requests":[],"webhook_url":null}`, true, false},
	)
	return cases
}

// checkDecode compares decodeBody with encoding/json on body.
func checkDecode[T RankRequest | BatchRequest](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr := decodeBody(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%T from %q: error %v, encoding/json %v", got, body, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T from %q:\n got %+v\nwant %+v", got, body, got, want)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range decodeCases() {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[RankRequest](t, body)
		checkDecode[BatchRequest](t, body)
	})
}

// TestDecodeFastPath calls the fast path directly: it must take every
// canonical body, agreeing with encoding/json, and give up on every
// input encoding/json treats differently from a plain copy.
func TestDecodeFastPath(t *testing.T) {
	for _, tc := range decodeCases() {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			var fast bool
			if tc.batch {
				fast = decodeFast(body, new(BatchRequest))
				checkDecode[BatchRequest](t, body)
			} else {
				fast = decodeFast(body, new(RankRequest))
				checkDecode[RankRequest](t, body)
			}
			if fast != tc.fast {
				t.Errorf("fast path took %q: %v, want %v", tc.body, fast, tc.fast)
			}
		})
	}
}

// TestDecodeAllocsPerCandidate pins the fast path's allocations on a
// canonical pool with attributes: a candidate costs its ID (one
// allocation) and its attrs map (two), while group names and attribute
// keys and values come from the intern table. encoding/json makes about
// eight.
func TestDecodeAllocsPerCandidate(t *testing.T) {
	const n = 1000
	req := RankRequest{Candidates: make([]Candidate, n), Noise: "mallows"}
	for i := range req.Candidates {
		req.Candidates[i] = Candidate{
			ID:    fmt.Sprintf("c%06d", i),
			Score: float64(i%97) / 7,
			Group: fmt.Sprintf("g%d", i%4),
			Attrs: map[string]string{"shadow": fmt.Sprintf("s%d", i%3)},
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !decodeFast(body, new(RankRequest)) {
		t.Fatal("fast path gave up on a canonical body")
	}
	allocs := testing.AllocsPerRun(10, func() {
		var got RankRequest
		if err := decodeBody(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3*n + 64); allocs > limit {
		t.Errorf("decoding %d candidates made %v allocations, want ≤ %v", n, allocs, limit)
	}
}

// TestDecodeBodyIsNotRetained: decodeBody copies every string, so the
// body's buffer can go back to the pool while the request is ranked.
func TestDecodeBodyIsNotRetained(t *testing.T) {
	body := []byte(canonicalBatch)
	var got, want BatchRequest
	if err := decodeBody(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(canonicalBatch), &want); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overwriting the body changed the decoded request:\n got %+v\nwant %+v", got, want)
	}
}
