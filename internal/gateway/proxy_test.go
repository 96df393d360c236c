package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// rankBody builds a canonical rank request; seed and sigma vary the
// configuration under test.
func rankBody(seed int64, sigma float64) string {
	return fmt.Sprintf(`{
		"candidates": [
			{"id": "ava",  "score": 9.5, "group": "f"},
			{"id": "bo",   "score": 9.0, "group": "m"},
			{"id": "cy",   "score": 8.0, "group": "f"},
			{"id": "dee",  "score": 7.5, "group": "m"},
			{"id": "eli",  "score": 6.0, "group": "m"},
			{"id": "fran", "score": 5.0, "group": "f"}
		],
		"algorithm": "mallows-best",
		"theta": 1.5,
		"samples": 5,
		"sigma": %g,
		"seed": %d
	}`, sigma, seed)
}

// startFleet spins up n real fairrankd backends (service.NewServer on
// ephemeral ports) behind a gateway with test-speed probe and retry
// cadences, and blocks until every backend is serving.
func startFleet(t *testing.T, n int, mutate func(*Config)) (*Gateway, *httptest.Server, []*service.Server) {
	t.Helper()
	backends := make([]*service.Server, n)
	urls := make([]string, n)
	for i := range backends {
		srv, err := service.NewServer(service.ServerConfig{
			Config: service.Config{Workers: 2},
			Addr:   "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		backends[i] = srv
		urls[i] = srv.URL()
	}
	cfg := Config{
		Backends:      urls,
		ProbeInterval: 5 * time.Millisecond,
		RetryBackoff:  2 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	gsrv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		gsrv.Close()
		g.Stop()
		for _, b := range backends {
			b.Close()
		}
	})
	waitServing(t, g, n)
	return g, gsrv, backends
}

func waitServing(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Serving() < want {
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck at %d/%d serving", g.Serving(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitBackendState(t *testing.T, b *Backend, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("backend %s stuck in %s, want %s", b.name, b.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// do sends one request and returns the full response with its body
// buffered.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// TestGatewayBitIdentity pins the acceptance criterion: equal-seed
// responses through the gateway are byte-identical to direct fairrankd
// responses — for single ranks, batches, and the catalog.
func TestGatewayBitIdentity(t *testing.T) {
	_, gsrv, backends := startFleet(t, 2, nil)
	direct := backends[0].URL()

	batch := `{"requests": [` + rankBody(7, 0.5) + `,` + rankBody(8, 0.5) + `]}`
	cases := []struct {
		name, method, path, body string
	}{
		{"rank", http.MethodPost, "/v1/rank", rankBody(42, 0)},
		{"rank_batch", http.MethodPost, "/v1/rank/batch", batch},
		{"algorithms", http.MethodGet, "/v1/algorithms", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gwResp, gwBody := do(t, tc.method, gsrv.URL+tc.path, tc.body)
			dResp, dBody := do(t, tc.method, direct+tc.path, tc.body)
			if gwResp.StatusCode != http.StatusOK || dResp.StatusCode != http.StatusOK {
				t.Fatalf("status gateway=%d direct=%d, want 200/200 (gateway body: %s)", gwResp.StatusCode, dResp.StatusCode, gwBody)
			}
			if string(gwBody) != string(dBody) {
				t.Errorf("gateway response diverges from direct fairrankd.\n--- direct\n%s\n--- gateway\n%s", dBody, gwBody)
			}
			if gct, dct := gwResp.Header.Get("Content-Type"), dResp.Header.Get("Content-Type"); gct != dct {
				t.Errorf("Content-Type: gateway %q, direct %q", gct, dct)
			}
		})
	}
}

// TestGatewayFailoverOnKilledBackend kills one of three backends and
// pins the availability contract: every subsequent request still
// succeeds (rerouted via the retry loop), the dead backend is demoted
// to degraded, and the fallback path shows up in the picker metrics.
func TestGatewayFailoverOnKilledBackend(t *testing.T) {
	// Probes slow enough that requests, not probes, find the dead
	// backend first, even on a loaded machine.
	g, gsrv, backends := startFleet(t, 3, func(cfg *Config) { cfg.ProbeInterval = 200 * time.Millisecond })
	backends[0].Close()

	// The idle fleet's name tie-break sends the first request to the
	// dead b0 before the probes can demote it; it must fail over.
	for i := 0; i < 30; i++ {
		resp, body := do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(1, float64(i)/10))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after backend kill: status %d: %s", i, resp.StatusCode, body)
		}
	}
	waitBackendState(t, g.Backends()[0], StateDegraded)

	// The attempts that reached the dead backend were retried elsewhere.
	if g.Backends()[0].errors.Load() == 0 {
		t.Fatal("dead backend recorded no failed attempts; the kill never exercised failover")
	}
	if g.metrics.pickFallback.Load() == 0 {
		t.Fatal("no fallback decisions recorded after a failed attempt")
	}

	// Once degraded it leaves the routable pool entirely.
	reqs := g.Backends()[0].requests.Load()
	for i := 0; i < 10; i++ {
		resp, body := do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(2, float64(i)/10))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d with degraded backend: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := g.Backends()[0].requests.Load(); got != reqs {
		t.Fatalf("degraded backend received %d new attempts, want 0", got-reqs)
	}
}

// TestGatewayJobLifecycle drives a job end to end through the gateway:
// the accepted ID carries the owning backend's prefix, polls and the
// final delete route by that prefix alone, and unprefixed or unknown
// IDs 404.
func TestGatewayJobLifecycle(t *testing.T) {
	_, gsrv, _ := startFleet(t, 2, nil)

	body := `{"requests": [` + rankBody(11, 0) + `,` + rankBody(12, 0) + `]}`
	resp, payload := do(t, http.MethodPost, gsrv.URL+"/v1/jobs/rank", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, payload)
	}
	var sub service.JobSubmitResponse
	if err := json.Unmarshal(payload, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "b0-job-") && !strings.HasPrefix(sub.ID, "b1-job-") {
		t.Fatalf("job ID %q lacks the backend prefix", sub.ID)
	}
	if sub.StatusURL != "/v1/jobs/"+sub.ID {
		t.Fatalf("status URL %q does not route back through the gateway ID %q", sub.StatusURL, sub.ID)
	}
	if sub.Total != 2 {
		t.Fatalf("submit total %d, want 2", sub.Total)
	}

	var st service.JobStatusResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, payload = do(t, http.MethodGet, gsrv.URL+sub.StatusURL, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, payload)
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == service.JobStateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(st.Items) != 2 || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("done job items=%d completed=%d failed=%d, want 2/2/0", len(st.Items), st.Completed, st.Failed)
	}

	// Deleting a finished job is the backend's 409, passed through with
	// the conflict body intact; the result stays fetchable.
	resp, payload = do(t, http.MethodDelete, gsrv.URL+sub.StatusURL, "")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(payload), "conflict") {
		t.Fatalf("delete finished job: status %d body %s, want 409", resp.StatusCode, payload)
	}
	if resp, _ = do(t, http.MethodGet, gsrv.URL+sub.StatusURL, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("poll after refused delete: status %d, want 200", resp.StatusCode)
	}

	// An ID without a known backend prefix is the gateway's own 404 —
	// it never guesses a backend.
	resp, payload = do(t, http.MethodGet, gsrv.URL+"/v1/jobs/job-000001", "")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(payload), "backend prefix") {
		t.Fatalf("unprefixed ID: status %d body %s, want the gateway's 404", resp.StatusCode, payload)
	}
	// A well-formed prefix for a job the backend never saw passes the
	// backend's 404 through.
	if resp, _ = do(t, http.MethodGet, gsrv.URL+"/v1/jobs/b0-job-999999", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// fakeServingBackend is an httptest backend that passes probes
// immediately and answers all other traffic with the given handler.
func fakeServingBackend(traffic http.HandlerFunc) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &service.ReadyzResponse{Status: "ready"})
	})
	mux.HandleFunc("/", traffic)
	return httptest.NewServer(mux)
}

// startFakeFleet wires n scripted backends behind a gateway.
func startFakeFleet(t *testing.T, n int, traffic http.HandlerFunc, mutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := fakeServingBackend(traffic)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cfg := Config{
		Backends:        urls,
		ProbeInterval:   5 * time.Millisecond,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	gsrv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		gsrv.Close()
		g.Stop()
	})
	waitServing(t, g, n)
	return g, gsrv
}

// TestGatewaySingleFlightSubmitNotRetried pins the single-flight
// contract: a job submit that reaches a backend and fails with a
// non-refusal status is reported to the client, never resent — exactly
// one attempt crosses the wire.
func TestGatewaySingleFlightSubmitNotRetried(t *testing.T) {
	var hits atomic.Int64
	g, gsrv := startFakeFleet(t, 2, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "boom"})
	}, nil)

	resp, _ := do(t, http.MethodPost, gsrv.URL+"/v1/jobs/rank", rankBody(1, 0))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("client saw %d, want the backend's 500 relayed", resp.StatusCode)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("backend saw %d submit attempts, want exactly 1 (single-flight)", got)
	}

	// The idempotent rank path retries the same failure across backends.
	hits.Store(0)
	resp, _ = do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(1, 0))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("rank client saw %d, want 500 after exhausting retries", resp.StatusCode)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("rank path made %d attempts across 2 backends, want 2 (one each)", got)
	}
	_ = g
}

// TestGatewayRetryAfterPassthrough pins the saturation path: a fleet
// answering 429 is retried once per distinct backend, the terminal 429
// reaches the client with its Retry-After hint intact, and each
// backend was tried exactly once (tried-set exclusion).
func TestGatewayRetryAfterPassthrough(t *testing.T) {
	var hits atomic.Int64
	g, gsrv := startFakeFleet(t, 2, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "saturated"})
	}, nil)

	resp, _ := do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(1, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("client saw %d, want the fleet's 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want the backend's hint relayed", got)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("fleet saw %d attempts, want 2 — one per backend, no backend hammered twice", got)
	}
	for _, b := range g.Backends() {
		if got := b.requests.Load(); got != 1 {
			t.Fatalf("backend %s saw %d attempts, want 1", b.name, got)
		}
	}
}

// TestGatewayBackoffHonorsClientCancel pins that no retry loop outlives
// its client: a client that cancels while the gateway backs off before
// a retry gets a 499 at once, not after the backoff.
func TestGatewayBackoffHonorsClientCancel(t *testing.T) {
	minute := func(cfg *Config) { cfg.RetryBackoff, cfg.RetryBackoffMax = time.Minute, time.Minute }
	saturated, _ := startFakeFleet(t, 1, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "60")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "saturated"})
	}, minute)
	// Job routes retry transport errors on the job's own backend: one
	// that refuses connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cfg := Config{Backends: []string{dead.URL}}
	minute(&cfg)
	unreachable, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, path, body string
		g                        *Gateway
	}{
		{"rank", http.MethodPost, "/v1/rank", rankBody(1, 0), saturated},
		{"job poll", http.MethodGet, "/v1/jobs/b0-job-000001", "", unreachable},
		{"job cancel", http.MethodDelete, "/v1/jobs/b0-job-000001", "", unreachable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.g.Backends()[0]
			retries := b.retries.Load()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				tc.g.Handler().ServeHTTP(rec, req)
			}()
			// A retry is counted just before its backoff starts.
			for b.retries.Load() == retries {
				select {
				case <-done:
					t.Fatalf("handler returned %d before any retry: %s", rec.Code, rec.Body.String())
				case <-time.After(time.Millisecond):
				}
			}
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("handler still running 5s after the client cancelled during a 1m backoff")
			}
			if rec.Code != statusClientClosedRequest {
				t.Fatalf("status %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body.String())
			}
		})
	}
}

// TestGatewayUnroutable pins the empty-pool answer: with no backend
// serving, sharded routes refuse with 503, a Retry-After sized to the
// probe cadence, and an unroutable picker metric.
func TestGatewayUnroutable(t *testing.T) {
	g, err := New(Config{
		Backends:      []string{"http://127.0.0.1:1"},
		ProbeInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the backend stays in probing and nothing routes.
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	resp, payload := do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(1, 0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(payload), "no serving backend") {
		t.Fatalf("body %s, want the no-serving-backend error", payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After hint")
	}
	if got := g.metrics.unroutable.Load(); got != 1 {
		t.Fatalf("unroutable metric = %d, want 1", got)
	}
}

// TestGatewayMetrics pins the observability surface after real
// traffic: route counters, per-backend attempt counts, the picker
// split, and the live-aggregated fleet engine view.
func TestGatewayMetrics(t *testing.T) {
	_, gsrv, _ := startFleet(t, 2, nil)

	const sends = 4
	for i := 0; i < sends; i++ {
		if resp, body := do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(int64(i), float64(i))); resp.StatusCode != http.StatusOK {
			t.Fatalf("send %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, payload := do(t, http.MethodGet, gsrv.URL+"/v1/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var m MetricsResponse
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}

	var rankRoute *RouteMetrics
	for i := range m.Routes {
		if m.Routes[i].Route == "POST /v1/rank" {
			rankRoute = &m.Routes[i]
		}
	}
	if rankRoute == nil || rankRoute.Requests != sends || rankRoute.Errors5xx != 0 {
		t.Fatalf("rank route counters %+v, want %d requests and no 5xx", rankRoute, sends)
	}
	if len(m.Backends) != 2 {
		t.Fatalf("%d backend entries, want 2", len(m.Backends))
	}
	var attempts int64
	for _, b := range m.Backends {
		attempts += b.Requests
		if b.State != "serving" || b.ProbeSuccesses == 0 {
			t.Fatalf("backend %s: state %s with %d probe successes, want a probed serving backend", b.Name, b.State, b.ProbeSuccesses)
		}
	}
	if attempts < sends {
		t.Fatalf("backends saw %d attempts total, want ≥ %d", attempts, sends)
	}
	if m.Picker.Primary+m.Picker.Fallback < sends {
		t.Fatalf("picker decisions %d+%d, want ≥ %d", m.Picker.Primary, m.Picker.Fallback, sends)
	}
	if m.Fleet.Backends != 2 || m.Fleet.Serving != 2 || m.Fleet.Reporting != 2 {
		t.Fatalf("fleet view %+v, want 2 backends all serving and reporting", m.Fleet)
	}
	if m.Fleet.Engine.Requests < sends || m.Fleet.Engine.Draws == 0 {
		t.Fatalf("fleet engine aggregate %+v, want the %d ranks' work summed in", m.Fleet.Engine, sends)
	}
}

// TestGatewayReadyz pins the gateway's own readiness contract: ready
// iff ≥ 1 backend serves, with per-backend states in the body.
func TestGatewayReadyz(t *testing.T) {
	g, gsrv, backends := startFleet(t, 2, nil)

	resp, payload := do(t, http.MethodGet, gsrv.URL+"/readyz", "")
	var rz ReadyzResponse
	if err := json.Unmarshal(payload, &rz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rz.Status != "ready" || rz.Serving != 2 || len(rz.Backends) != 2 {
		t.Fatalf("healthy fleet readyz: status %d body %s", resp.StatusCode, payload)
	}

	backends[0].Close()
	backends[1].Close()
	waitBackendState(t, g.Backends()[0], StateDegraded)
	waitBackendState(t, g.Backends()[1], StateDegraded)
	resp, payload = do(t, http.MethodGet, gsrv.URL+"/readyz", "")
	if err := json.Unmarshal(payload, &rz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Status != "unavailable" || rz.Serving != 0 {
		t.Fatalf("dead fleet readyz: status %d body %s, want 503 unavailable", resp.StatusCode, payload)
	}
}

// TestGatewayConcurrentTrafficWithBackendKill is the routing-path race
// stress (run under -race): live probers flip backend states while
// concurrent clients rank, batch, and scrape metrics, and a backend
// dies mid-run. Every client request must still succeed — the
// zero-client-visible-failures contract the fleet soak enforces at
// scale.
func TestGatewayConcurrentTrafficWithBackendKill(t *testing.T) {
	g, gsrv, backends := startFleet(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = 2 * time.Millisecond
	})

	const clients, perClient = 6, 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	var killOnce sync.Once
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					killOnce.Do(func() { backends[2].Close() })
				}
				var resp *http.Response
				var body []byte
				switch i % 3 {
				case 0:
					resp, body = do(t, http.MethodPost, gsrv.URL+"/v1/rank", rankBody(int64(i), float64(c)+float64(i)/100))
				case 1:
					resp, body = do(t, http.MethodPost, gsrv.URL+"/v1/rank/batch",
						`{"requests": [`+rankBody(int64(i), float64(c))+`]}`)
				default:
					resp, body = do(t, http.MethodGet, gsrv.URL+"/v1/metrics", "")
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d request %d: status %d: %s", c, i, resp.StatusCode, body)
				}
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d client-visible failures during the backend kill, want 0", failures.Load())
	}
	waitBackendState(t, g.Backends()[2], StateDegraded)
}
