package service

// Transport middleware tests: request-ID injection, panic recovery,
// and the per-route counters behind GET /v1/metrics.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRequestIDInjectedAndPreserved(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := rec.Header().Get("X-Request-Id"); got == "" {
		t.Error("response without a generated X-Request-Id")
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "proxy-abc-123")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if got := rec2.Header().Get("X-Request-Id"); got != "proxy-abc-123" {
		t.Errorf("inbound request ID not preserved: got %q", got)
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	m := newMetrics()
	h := chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), recovery(m, nil))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] != "internal server error" {
		t.Errorf("panic body %q", rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "boom") {
		t.Error("panic value leaked into the response")
	}
	if m.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", m.panics.Load())
	}
	// A panic after the handler already wrote must not write a second
	// status — just recover and count.
	h2 := chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late")
	}), recovery(m, nil))
	rec2 := httptest.NewRecorder()
	h2.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec2.Code != http.StatusOK {
		t.Errorf("late panic rewrote the status to %d", rec2.Code)
	}
	if m.panics.Load() != 2 {
		t.Errorf("panics counter = %d, want 2", m.panics.Load())
	}
}

// TestRouteMetricsCountsPanics: a panicking handler must land in its
// route's errors_5xx — the failures operators most want to alert on —
// while the outer recovery middleware still produces the 500 response.
func TestRouteMetricsCountsPanics(t *testing.T) {
	m := newMetrics()
	rs := m.route("GET /boom")
	h := chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), recovery(m, nil), routeMetrics(rs))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if rs.errors5xx.Load() != 1 {
		t.Errorf("errors_5xx = %d, want 1", rs.errors5xx.Load())
	}
	if rs.inflight.Load() != 0 {
		t.Errorf("inflight = %d after the panic, want 0", rs.inflight.Load())
	}
	if m.panics.Load() != 1 {
		t.Errorf("panics = %d, want 1", m.panics.Load())
	}
}

// TestMetricsEndpointCounts: the /v1/metrics snapshot must agree with
// the traffic the handler actually served — per-route requests and
// error classes, and the engine counters.
func TestMetricsEndpointCounts(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	serve := func(method, path, body string) int {
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		return rec.Code
	}

	good := `{"candidates": [{"id":"a","score":2,"group":"x"},{"id":"b","score":1,"group":"y"}], "samples": 3, "seed": 1}`
	if code := serve(http.MethodPost, "/v1/rank", good); code != http.StatusOK {
		t.Fatalf("good rank returned %d", code)
	}
	if code := serve(http.MethodPost, "/v1/rank", `{"candidates": []}`); code != http.StatusBadRequest {
		t.Fatalf("bad rank returned %d", code)
	}
	if code := serve(http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics returned %d: %s", rec.Code, rec.Body.String())
	}
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	byRoute := map[string]RouteMetrics{}
	for _, rt := range m.Routes {
		byRoute[rt.Route] = rt
	}
	rank := byRoute["POST /v1/rank"]
	if rank.Requests != 2 || rank.Errors4xx != 1 || rank.Errors5xx != 0 {
		t.Errorf("POST /v1/rank counters %+v", rank)
	}
	if rank.LatencyMsSum <= 0 {
		t.Errorf("POST /v1/rank latency sum %v, want > 0", rank.LatencyMsSum)
	}
	if hz := byRoute["GET /healthz"]; hz.Requests != 1 {
		t.Errorf("GET /healthz counters %+v", hz)
	}
	// The metrics request itself is counted, snapshotted mid-flight.
	if me := byRoute["GET /v1/metrics"]; me.Requests != 1 || me.InFlight != 1 {
		t.Errorf("GET /v1/metrics counters %+v", me)
	}
	if m.Queue.Workers != 2 || m.Queue.Depth != 8 {
		t.Errorf("queue shape %+v", m.Queue)
	}
	if m.Queue.Admitted != 0 || m.Queue.InFlight != 0 {
		t.Errorf("queue gauges not idle: %+v", m.Queue)
	}
	// One successful rank through the default algorithm: the one
	// engine, one engine request, three draws, one table miss.
	if m.Engine.RankersCached != 1 || m.Engine.Requests != 1 {
		t.Errorf("engine gauges %+v", m.Engine)
	}
	if m.Engine.Draws != 3 || m.Engine.TableMisses != 1 {
		t.Errorf("engine counters %+v", m.Engine)
	}
	if m.Panics != 0 {
		t.Errorf("panics = %d", m.Panics)
	}
}

// TestRankerStatsDirect pins the engine-layer hook the metrics build
// on: requests, draws, and table hit/miss counting on fairrank.Ranker.
func TestRankerStatsDirect(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	req := &RankRequest{Candidates: pool(10), Samples: ptr(4), Seed: 1}
	for i := 0; i < 3; i++ {
		if _, err := s.Rank(t.Context(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := s.ranker.Stats()
	if st.Requests != 3 || st.Draws != 12 {
		t.Errorf("requests=%d draws=%d, want 3 and 12", st.Requests, st.Draws)
	}
	if st.TableMisses != 1 || st.TableHits != 2 {
		t.Errorf("table hits=%d misses=%d, want 2 and 1", st.TableHits, st.TableMisses)
	}
}

// Truncated rank requests on each built-in noise axis surface per-noise
// truncation counters in /v1/metrics, and the axes sum to the total.
func TestMetricsPerNoiseTruncation(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	for _, noise := range []string{"mallows", "gmallows", "plackett-luce"} {
		req := &RankRequest{
			Candidates: pool(30),
			Noise:      noise,
			Samples:    ptr(4),
			TopK:       ptr(5),
			Seed:       1,
		}
		if _, err := s.Rank(t.Context(), req); err != nil {
			t.Fatalf("%s: %v", noise, err)
		}
	}
	m := s.Metrics()
	if m.Engine.DrawsTruncated != 12 {
		t.Fatalf("truncated draws = %d, want 12 (3 requests × 4 samples)", m.Engine.DrawsTruncated)
	}
	var sum int64
	for _, noise := range []string{"mallows", "gmallows", "plackett-luce"} {
		c := m.Engine.DrawsTruncatedByNoise[noise]
		if c != 4 {
			t.Errorf("truncated draws on %s = %d, want 4", noise, c)
		}
		sum += c
	}
	if sum != m.Engine.DrawsTruncated {
		t.Errorf("per-noise axes sum to %d, total is %d", sum, m.Engine.DrawsTruncated)
	}
}

// TestEngineCountersExactAcrossConfigs: requests of many distinct
// configurations all count — 300 sigma values, more than a bounded
// per-configuration engine cache would hold without evicting counts.
func TestEngineCountersExactAcrossConfigs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	const requests = 300
	for i := 0; i < requests; i++ {
		body := fmt.Sprintf(`{"candidates": [{"id":"a","score":2,"group":"x"},{"id":"b","score":1,"group":"y"}], "samples": 2, "sigma": %g, "seed": %d}`, float64(i)/1000, i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Engine.Requests != requests || m.Engine.Draws != 2*requests {
		t.Errorf("engine counted %d requests and %d draws, want %d and %d", m.Engine.Requests, m.Engine.Draws, requests, 2*requests)
	}
}
