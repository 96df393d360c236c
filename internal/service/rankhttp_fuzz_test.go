package service

// FuzzRankHTTP drives arbitrary bodies through the real handler on the
// two synchronous ranking routes and holds every answer to the wire
// contract's structural rules. encoding/json is the reference for what
// the handler reads from a body (FuzzDecodeRequest pins the handler's
// decoder to it).

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzMaxSamples bounds the harness's work per input: nothing on the
// wire caps samples, so one body could draw for hours. Bodies asking
// for more are skipped; this bounds what the fuzzer sends, not what the
// server accepts.
const fuzzMaxSamples = 64

func FuzzRankHTTP(f *testing.F) {
	for _, tc := range decodeCases() {
		f.Add([]byte(tc.body), tc.batch)
	}
	const pool = `[{"id":"a","score":3,"group":"x"},{"id":"b","score":2,"group":"y"},` +
		`{"id":"c","score":1,"group":"x"},{"id":"d","score":0.5,"group":"y"}]`
	for _, body := range []string{
		`{"requests":[{"candidates":` + pool + `,"algorithm":"mallows-best","noise":"plackett-luce","top_k":2,"seed":1},` +
			`{"candidates":` + pool + `,"algorithm":"detconstsort"},` +
			`{"candidates":` + pool + `,"algorithm":"mallows","noise":"gmallows","central":"score","theta":0,"seed":3},` +
			`{"candidates":` + pool + `,"algorithm":"ilp","top_k":3}]}`,
		`{"requests":[{"candidates":` + pool + `,"algorithm":"ipf","tolerance":0},` +
			`{"candidates":` + pool + `,"algorithm":"grbinary","sigma":0.5,"seed":2},` +
			`{"candidates":` + pool + `,"algorithm":"expost-fair","central":"fair"},` +
			`{"candidates":` + pool + `,"algorithm":"pl-best","criterion":"kt","samples":4}]}`,
		`{"requests":[{"candidates":` + pool + `,"algorithm":"score"},{"candidates":[]},` +
			`{"candidates":` + pool + `,"algorithm":"nope"},{"candidates":` + pool + `,"top_k":0}]}`,
	} {
		f.Add([]byte(body), true)
	}

	svc := New(Config{Workers: 2, MaxCandidates: 16, MaxBatch: 4})
	f.Cleanup(svc.Close)
	h := NewHandler(svc)

	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		// reqs is what the handler reads from body, as encoding/json
		// reads it, when decoded says encoding/json accepts the body.
		path, reqs, decoded := "/v1/rank", []RankRequest(nil), false
		if batch {
			var b BatchRequest
			decoded = json.NewDecoder(bytes.NewReader(body)).Decode(&b) == nil
			path, reqs = path+"/batch", b.Requests
		} else {
			var r RankRequest
			decoded = json.NewDecoder(bytes.NewReader(body)).Decode(&r) == nil
			reqs = []RankRequest{r}
		}
		for _, r := range reqs {
			if decoded && r.Samples != nil && *r.Samples > fuzzMaxSamples {
				t.Skip()
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		out := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusBadRequest:
			checkErrorBody(t, out)
		case http.StatusOK:
			if !decoded {
				t.Fatalf("200 for a body encoding/json rejects: %q", body)
			}
			if batch {
				var resp BatchResponse
				if err := json.Unmarshal(out, &resp); err != nil {
					t.Fatalf("undecodable batch response %q: %v", out, err)
				}
				if len(resp.Items) != len(reqs) {
					t.Fatalf("%d items for %d entries: %s", len(resp.Items), len(reqs), out)
				}
				for i, it := range resp.Items {
					if (it.Response == nil) == (it.Error == "") {
						t.Fatalf("item %d sets neither or both of response and error: %s", i, out)
					}
					if it.Response != nil {
						checkRankResponse(t, &reqs[i], it.Response)
					}
				}
				return
			}
			var resp RankResponse
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("undecodable rank response %q: %v", out, err)
			}
			checkRankResponse(t, &reqs[0], &resp)
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, out)
		}
	})
}

// checkErrorBody requires the stable error shape: a JSON object with
// exactly one key, "error", holding a non-empty string.
func checkErrorBody(t *testing.T, body []byte) {
	t.Helper()
	var m map[string]json.RawMessage
	var msg string
	if json.Unmarshal(body, &m) != nil || len(m) != 1 || json.Unmarshal(m["error"], &msg) != nil || msg == "" {
		t.Fatalf("400 body is not one non-empty error: %s", body)
	}
}

// checkRankResponse requires a ranking of min(top_k, n) distinct
// request IDs ranked 1…k, echoed as diagnostics.top_k, with a finite
// NDCG, a P-fair share in [0, 100] and an infeasible index in [0, k].
func checkRankResponse(t *testing.T, req *RankRequest, resp *RankResponse) {
	t.Helper()
	k := len(req.Candidates)
	if req.TopK != nil {
		k = min(k, *req.TopK)
	}
	d := resp.Diagnostics
	if len(resp.Ranking) != k || d.TopK != k {
		t.Fatalf("ranking of %d with diagnostics.top_k %d, want %d", len(resp.Ranking), d.TopK, k)
	}
	ids := make(map[string]bool, len(req.Candidates))
	for _, c := range req.Candidates {
		ids[c.ID] = true
	}
	for i, c := range resp.Ranking {
		if c.Rank != i+1 || !ids[c.ID] {
			t.Fatalf("row %d: rank %d, id %q (known %v)", i, c.Rank, c.ID, ids[c.ID])
		}
		delete(ids, c.ID) // a repeated ID is no longer known
	}
	if math.IsNaN(resp.NDCG) || math.IsInf(resp.NDCG, 0) || math.IsNaN(d.NDCG) || math.IsInf(d.NDCG, 0) {
		t.Fatalf("non-finite ndcg %v / %v", resp.NDCG, d.NDCG)
	}
	if !(d.PPfair >= 0 && d.PPfair <= 100) {
		t.Fatalf("ppfair %v outside [0, 100]", d.PPfair)
	}
	if d.InfeasibleIndex < 0 || d.InfeasibleIndex > k {
		t.Fatalf("infeasible_index %d outside [0, %d]", d.InfeasibleIndex, k)
	}
}
