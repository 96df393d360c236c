package service

// Exact wire-level error contracts: for every rejectable RankRequest
// field the HTTP status code and the exact JSON error body are pinned,
// because clients match on them. A wording change here is a wire
// change.

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wantErrorBody renders the exact bytes the handler writes for an
// error message (the JSON encoder escapes embedded quotes and appends
// a newline).
func wantErrorBody(t *testing.T, msg string) string {
	t.Helper()
	b, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// serve runs one request through the full handler stack.
func serve(t *testing.T, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	h := NewHandler(New(Config{Workers: 2, MaxCandidates: 16, MaxBatch: 2}))
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// candidatesJSON renders a minimal valid pool inline.
const candidatesJSON = `[{"id":"a","score":2,"group":"x"},{"id":"b","score":1,"group":"y"}]`

func TestWireValidationErrorsExact(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // exact "error" payload
	}{
		{"empty candidates", `{"candidates": []}`,
			"invalid request: fairrank: empty candidate set"},
		{"oversized pool", `{"candidates": [` + bigPool(17) + `]}`,
			"invalid request: 17 candidates exceed the limit of 16"},
		{"empty id", `{"candidates": [{"id":"","score":1,"group":"x"}]}`,
			"invalid request: fairrank: candidate 0 has an empty id"},
		{"duplicate id", `{"candidates": [{"id":"a","score":1,"group":"x"},{"id":"a","score":2,"group":"y"}]}`,
			`invalid request: fairrank: duplicate candidate id "a"`},
		{"negative theta", `{"candidates": ` + candidatesJSON + `, "theta": -1.5}`,
			"invalid request: fairrank: theta = -1.5, want ≥ 0"},
		{"zero samples", `{"candidates": ` + candidatesJSON + `, "samples": 0}`,
			"invalid request: fairrank: samples = 0, want ≥ 1"},
		{"negative tolerance", `{"candidates": ` + candidatesJSON + `, "tolerance": -0.1}`,
			"invalid request: fairrank: tolerance = -0.1, want ≥ 0"},
		{"zero top_k", `{"candidates": ` + candidatesJSON + `, "top_k": 0}`,
			"invalid request: fairrank: top_k = 0, want ≥ 1"},
		{"negative weak_k", `{"candidates": ` + candidatesJSON + `, "weak_k": -2}`,
			"invalid request: fairrank: weak_k = -2, want ≥ 1"},
		{"negative sigma", `{"candidates": ` + candidatesJSON + `, "sigma": -1}`,
			"invalid request: fairrank: sigma = -1, want ≥ 0"},
		{"empty group", `{"candidates": [{"id":"a","score":1,"group":""},{"id":"b","score":2,"group":"y"}]}`,
			`invalid request: fairrank: candidate "a" has empty Group`},
		{"unknown algorithm", `{"candidates": ` + candidatesJSON + `, "algorithm": "quicksort"}`,
			`invalid request: fairrank: unknown algorithm "quicksort"`},
		{"unknown central", `{"candidates": ` + candidatesJSON + `, "central": "median"}`,
			`invalid request: fairrank: unknown central ranking "median"`},
		{"unknown criterion", `{"candidates": ` + candidatesJSON + `, "criterion": "vibes"}`,
			`invalid request: fairrank: unknown criterion "vibes"`},
		{"unknown noise", `{"candidates": ` + candidatesJSON + `, "noise": "fog"}`,
			`invalid request: fairrank: unknown noise "fog"`},
		{"membership empty group", `{"candidates": [{"id":"a","score":2,"group":"x","membership":{"":1}},{"id":"b","score":1,"group":"y"}]}`,
			`invalid request: fairrank: candidate "a" membership names an empty group`},
		{"membership negative", `{"candidates": [{"id":"a","score":2,"group":"x","membership":{"x":-0.5}},{"id":"b","score":1,"group":"y"}]}`,
			`invalid request: fairrank: candidate "a" membership for group "x" is -0.5, want in [0,1]`},
		{"membership above one", `{"candidates": [{"id":"a","score":2,"group":"x","membership":{"x":1.25}},{"id":"b","score":1,"group":"y"}]}`,
			`invalid request: fairrank: candidate "a" membership for group "x" is 1.25, want in [0,1]`},
		{"membership not normalized", `{"candidates": [{"id":"a","score":2,"group":"x","membership":{"x":0.25,"y":0.25}},{"id":"b","score":1,"group":"y"}]}`,
			`invalid request: fairrank: candidate "a" membership sums to 0.5, want 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(t, http.MethodPost, "/v1/rank", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body.String())
			}
			want := wantErrorBody(t, tc.want)
			if got := rec.Body.String(); got != want {
				t.Errorf("body = %q, want exactly %q", got, want)
			}
		})
	}
}

// TestWireNaNScoreRejected: JSON has no NaN literal, so a NaN score can
// only arrive via the Go API — but the service must still reject it
// with its exact message when it does.
func TestWireNaNScoreRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	_, err := s.Rank(t.Context(), &RankRequest{Candidates: []Candidate{
		{ID: "a", Score: math.NaN(), Group: "x"}, {ID: "b", Score: 1, Group: "y"},
	}})
	if err == nil {
		t.Fatal("NaN score accepted")
	}
	const want = `invalid request: fairrank: candidate "a" has NaN score`
	if err.Error() != want {
		t.Errorf("error = %q, want exactly %q", err, want)
	}
}

// TestWireNaNMembershipRejected: like NaN scores, a NaN membership
// probability can only arrive through the Go API; the validation layer
// still pins its exact message.
func TestWireNaNMembershipRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	_, err := s.Rank(t.Context(), &RankRequest{Candidates: []Candidate{
		{ID: "a", Score: 2, Group: "x", Membership: map[string]float64{"x": math.NaN()}},
		{ID: "b", Score: 1, Group: "y"},
	}})
	if err == nil {
		t.Fatal("NaN membership accepted")
	}
	const want = `invalid request: fairrank: candidate "a" membership for group "x" is NaN, want in [0,1]`
	if err.Error() != want {
		t.Errorf("error = %q, want exactly %q", err, want)
	}
}

// TestWireNonFiniteMetricExact: scores near the float64 limit are valid
// JSON, but their DCG and IDCG overflow to +Inf and the NDCG is NaN,
// which JSON cannot carry. /v1/rank answers 400 with the error shape,
// and in a batch or a job only that entry fails, while its neighbours
// carry the bytes they carry on their own.
func TestWireNonFiniteMetricExact(t *testing.T) {
	const huge = `{"candidates": [{"id":"a","score":1.7e308,"group":"x"},{"id":"b","score":1.7e308,"group":"y"}], "seed": 1}`
	const fine = `{"candidates": ` + candidatesJSON + `, "seed": 2}`
	const msg = "invalid request: ndcg = NaN, want finite"
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}

	rec := post("/v1/rank", huge)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %q", rec.Code, rec.Body.String())
	}
	if got, want := rec.Body.String(), wantErrorBody(t, msg); got != want {
		t.Errorf("body = %q, want exactly %q", got, want)
	}

	single := post("/v1/rank", fine)
	if single.Code != http.StatusOK {
		t.Fatalf("status %d for the finite entry alone; body %q", single.Code, single.Body.String())
	}
	errItem, err := json.Marshal(BatchItem{Error: msg})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"items":[` + string(errItem) + `,{"response":` + strings.TrimSuffix(single.Body.String(), "\n") + "}]}\n"
	rec = post("/v1/rank/batch", `{"requests": [`+huge+`, `+fine+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200; body %q", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); got != want {
		t.Errorf("batch body = %q, want exactly %q", got, want)
	}

	sub, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{
		{Candidates: []Candidate{{ID: "a", Score: 1.7e308, Group: "x"}, {ID: "b", Score: 1.7e308, Group: "y"}}, Seed: 1},
		{Candidates: []Candidate{{ID: "a", Score: 2, Group: "x"}, {ID: "b", Score: 1, Group: "y"}}, Seed: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	if items := jobItems(t, st); st.Failed != 1 || len(items) != 2 || items[0].Error != msg || items[1].Response == nil {
		t.Errorf("job items = %+v (failed %d), want the first to fail with %q and the second to succeed", items, st.Failed, msg)
	}
}

func TestWireBatchLimitsExact(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"empty batch", `{"requests": []}`, "invalid request: empty batch"},
		{"oversized batch", `{"requests": [{"candidates": ` + candidatesJSON + `}, {"candidates": ` + candidatesJSON + `}, {"candidates": ` + candidatesJSON + `}]}`,
			"invalid request: batch of 3 requests exceeds the limit of 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(t, http.MethodPost, "/v1/rank/batch", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body.String())
			}
			want := wantErrorBody(t, tc.want)
			if got := rec.Body.String(); got != want {
				t.Errorf("body = %q, want exactly %q", got, want)
			}
		})
	}
}

// TestWireMalformedJSONExactStatus pins the malformed-body contract:
// 400 with a body that names the decode failure.
func TestWireMalformedJSONExactStatus(t *testing.T) {
	rec := serve(t, http.MethodPost, "/v1/rank", `{"candidates": [`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if !strings.HasPrefix(rec.Body.String(), `{"error":"malformed JSON: `) {
		t.Errorf("body %q does not carry the malformed-JSON prefix", rec.Body.String())
	}
}

// TestWireOversizedBodyExact pins the 413 contract of the three POST
// routes, which the gateway answers alike: a body over the 32 MiB cap is
// refused with the stable error shape. The body's first JSON value ends
// long before the cap, and it is still refused, because the whole body
// is read before decoding; it has no Content-Length, so the cap alone
// stops the read.
func TestWireOversizedBodyExact(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	for _, path := range []string{"/v1/rank", "/v1/rank/batch", "/v1/jobs/rank"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			body := io.MultiReader(
				strings.NewReader(`{"candidates":`+candidatesJSON+`}`),
				io.LimitReader(spaces{}, maxBodyBytes))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413; body %s", rec.Code, rec.Body.String())
			}
			if got, want := rec.Body.String(), wantErrorBody(t, "reading request body: http: request body too large"); got != want {
				t.Errorf("body = %q, want exactly %q", got, want)
			}
		})
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestWireContextStatusCodes pins the cancellation-vs-deadline wire
// contract: a client that went away gets nginx's 499, while a deadline
// that expired server-side is a gateway timeout, 504 — they are
// different failures and clients retry them differently. Both bodies
// carry the exact context error string.
func TestWireContextStatusCodes(t *testing.T) {
	cases := []struct {
		name       string
		ctx        func(t *testing.T) context.Context
		wantStatus int
		wantBody   string
	}{
		{
			name: "client cancellation is 499",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			wantStatus: 499,
			wantBody:   "context canceled",
		},
		{
			name: "deadline expiry is 504",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				t.Cleanup(cancel)
				return ctx
			},
			wantStatus: http.StatusGatewayTimeout,
			wantBody:   "context deadline exceeded",
		},
	}
	body := `{"candidates": ` + candidatesJSON + `, "seed": 1}`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHandler(New(Config{Workers: 2}))
			req := httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(body))
			req = req.WithContext(tc.ctx(t))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if got, want := rec.Body.String(), wantErrorBody(t, tc.wantBody); got != want {
				t.Errorf("body = %q, want exactly %q", got, want)
			}
		})
	}
}

// TestWireSaturationExact pins the 429 contract: exact error body and a
// Retry-After header carrying the queue-wait budget in whole seconds.
func TestWireSaturationExact(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, QueueWait: 2 * time.Second})
	defer s.Close()
	h := NewHandler(s)
	release := fillGate(s)
	defer release()
	req := httptest.NewRequest(http.MethodPost, "/v1/rank",
		strings.NewReader(`{"candidates": `+candidatesJSON+`, "seed": 1}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if got, want := rec.Body.String(), wantErrorBody(t, "server saturated"); got != want {
		t.Errorf("body = %q, want exactly %q", got, want)
	}
}

// TestWireJobNotFoundExact pins the 404 contract of the job routes.
func TestWireJobNotFoundExact(t *testing.T) {
	rec := serve(t, http.MethodGet, "/v1/jobs/job-000042", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if got, want := rec.Body.String(), wantErrorBody(t, `not found: job "job-000042"`); got != want {
		t.Errorf("body = %q, want exactly %q", got, want)
	}
}

// bigPool renders n one-group candidates inline.
func bigPool(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"id":"c` + string(rune('a'+i%26)) + string(rune('a'+i/26)) + `","score":1,"group":"x"}`)
	}
	return sb.String()
}
