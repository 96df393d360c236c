package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

var errNoBackends = errors.New("gateway: no backends configured")

func errBadBackend(u string) error {
	return fmt.Errorf("gateway: backend %q is not an absolute URL", u)
}

func errDupBackend(u string) error {
	return fmt.Errorf("gateway: backend %q listed twice", u)
}

// Gateway spreads fairrankd traffic across a probed backend pool.
// Construct with New, launch the probe supervisors with Start, expose
// Handler over HTTP, and Stop when done.
type Gateway struct {
	cfg      Config
	client   *http.Client
	backends []*Backend
	byName   map[string]*Backend
	metrics  *metrics
	probers  []*prober
}

// New validates the configuration and builds the gateway. Backends
// start in the probing state; nothing is routable until Start's probe
// supervisors promote them.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		client:  cfg.Client,
		byName:  make(map[string]*Backend, len(cfg.Backends)),
		metrics: newGatewayMetrics(),
	}
	for i, u := range cfg.Backends {
		b := &Backend{name: "b" + strconv.Itoa(i), url: strings.TrimRight(u, "/")}
		g.backends = append(g.backends, b)
		g.byName[b.name] = b
	}
	return g, nil
}

// Backends exposes the pool, in config order (read-only).
func (g *Gateway) Backends() []*Backend { return g.backends }

// Serving counts backends currently in the serving state.
func (g *Gateway) Serving() int {
	n := 0
	for _, b := range g.backends {
		if b.State() == StateServing {
			n++
		}
	}
	return n
}

// Start launches one probe supervisor per backend. Each probes
// immediately, so a healthy fleet becomes routable after
// HealthyThreshold probe rounds.
func (g *Gateway) Start() {
	for _, b := range g.backends {
		p := newProber(g.cfg, b)
		g.probers = append(g.probers, p)
		go p.run()
	}
}

// Stop halts the probe supervisors and drops idle upstream
// connections. In-flight forwards complete.
func (g *Gateway) Stop() {
	for _, p := range g.probers {
		p.halt()
	}
	g.probers = nil
	g.client.CloseIdleConnections()
}

// ReadyzResponse answers the gateway's GET /readyz: ready iff at least
// one backend is serving, with the per-backend lifecycle states so
// operators (and the fleet soak harness) can see the pool converge.
type ReadyzResponse struct {
	// Status is "ready" (HTTP 200) or "unavailable" (HTTP 503).
	Status string `json:"status"`
	// Serving counts routable backends.
	Serving int `json:"serving"`
	// Backends reports each backend's lifecycle state, in config order.
	Backends []BackendState `json:"backends"`
}

// BackendState is one backend's lifecycle state in the readiness body.
type BackendState struct {
	Name  string `json:"name"`
	State string `json:"state"`
}

// Readyz assembles the gateway readiness snapshot.
func (g *Gateway) Readyz() (*ReadyzResponse, bool) {
	resp := &ReadyzResponse{Backends: make([]BackendState, len(g.backends))}
	for i, b := range g.backends {
		resp.Backends[i] = BackendState{Name: b.name, State: b.State().String()}
		if b.State() == StateServing {
			resp.Serving++
		}
	}
	if resp.Serving > 0 {
		resp.Status = "ready"
		return resp, true
	}
	resp.Status = "unavailable"
	return resp, false
}

// Handler exposes the gateway over HTTP. The ranking, job-submit and
// catalog routes are routed through pick; job polls and deletes follow
// the backend prefix baked into gateway-issued job IDs; metrics,
// healthz, and readyz are answered by the gateway itself.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		rs := g.metrics.route(pattern)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			rs.requests.Add(1)
			sw := &statusRecorder{ResponseWriter: w}
			h(sw, r)
			rs.observe(sw.Status())
		})
	}
	route("POST /v1/rank", func(w http.ResponseWriter, r *http.Request) {
		g.forwardBody(w, r, false, nil)
	})
	route("POST /v1/rank/batch", func(w http.ResponseWriter, r *http.Request) {
		g.forwardBody(w, r, false, nil)
	})
	route("POST /v1/jobs/rank", func(w http.ResponseWriter, r *http.Request) {
		// Job submissions are single-flight, and accepted jobs come
		// back with the owning backend's name baked into the job ID so
		// later polls need no gateway-side affinity state.
		g.forwardBody(w, r, true, rewriteJobSubmit)
	})
	route("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// The fleet-wide listing: fan out to every serving backend,
		// merge, and page with a composite cursor (see forwardJobList).
		g.forwardJobList(w, r)
	})
	route("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.forwardJob(w, r)
	})
	route("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.forwardJob(w, r)
	})
	route("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		// The catalog is identical fleet-wide; any serving backend
		// answers.
		g.forward(w, r, http.MethodGet, "/v1/algorithms", nil, false, nil)
	})
	route("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Metrics(r.Context()))
	})
	route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		resp, ready := g.Readyz()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	})
	return mux
}

// upstreamResult is one forwarding attempt's outcome: a transport
// error, or a fully buffered response. Buffering is what makes retry
// safe — the client never sees bytes from an attempt that dies
// mid-response.
type upstreamResult struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// transform optionally rewrites a relayed response (the job-submit ID
// prefix); it runs only on the final, non-retried response.
type transform func(b *Backend, res *upstreamResult)

// forwardBody reads and bounds the body and forwards it. The body is
// relayed as bytes, never decoded: a backend rejects a malformed one
// with the exact 400 a direct client would get.
func (g *Gateway) forwardBody(w http.ResponseWriter, r *http.Request, singleFlight bool, tf transform) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": "reading request body: " + err.Error()})
		return
	}
	g.forward(w, r, r.Method, r.URL.Path, body, singleFlight, tf)
}

// forward runs the retrying forwarding loop: pick the least-loaded
// routable backend, attempt with a per-attempt timeout, and on a
// retryable failure back off and try the next backend — excluding
// every backend already tried, so a dying backend is never hammered
// twice for one request. Retries honor Retry-After on 429/503
// saturation answers. Single-flight requests (job submits) are retried
// only when the attempt provably never reached a backend (a dial
// failure) or the backend provably refused it (429/503); any other
// failure is reported rather than resent.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, method, path string, body []byte, singleFlight bool, tf transform) {
	tried := make(map[*Backend]bool)
	backoff := g.cfg.RetryBackoff
	var last *upstreamResult
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		pool := g.routable(tried)
		if len(pool) == 0 {
			break
		}
		b := pick(pool)
		if attempt == 0 {
			g.metrics.pickPrimary.Add(1)
		} else {
			g.metrics.pickFallback.Add(1)
		}
		res := g.attempt(r.Context(), b, method, path, r.Header, body)
		if done := g.settle(w, r, b, res, singleFlight, tf); done {
			return
		}
		tried[b] = true
		last = res
		if attempt == g.cfg.MaxAttempts-1 {
			break
		}
		b.retries.Add(1)
		wait := backoff
		if res.err == nil {
			if ra := retryAfterHint(res.header); ra > 0 {
				wait = ra
			}
		}
		if !g.pause(w, r, wait) {
			return
		}
		backoff *= 2
	}
	g.exhausted(w, last, tried)
}

// pause is the retry loops' backoff: it waits d, capped at
// RetryBackoffMax, and reports true, unless the client goes away first;
// then it answers 499 and reports false, so no handler outlives its
// client by a backoff.
func (g *Gateway) pause(w http.ResponseWriter, r *http.Request, d time.Duration) bool {
	timer := time.NewTimer(min(d, g.cfg.RetryBackoffMax))
	defer timer.Stop()
	select {
	case <-r.Context().Done():
		writeJSON(w, statusClientClosedRequest, map[string]string{"error": "client cancelled during retry backoff"})
		return false
	case <-timer.C:
		return true
	}
}

// settle decides one attempt's fate: relay the response (done), or
// record the failure and let the loop retry (not done). It writes the
// terminal response itself for the failures that must not retry — a
// cancelled client, a single-flight request that may have reached the
// backend.
func (g *Gateway) settle(w http.ResponseWriter, r *http.Request, b *Backend, res *upstreamResult, singleFlight bool, tf transform) bool {
	if res.err == nil && !retryableStatus(res.status, singleFlight) {
		if tf != nil {
			tf(b, res)
		}
		relay(w, res)
		return true
	}
	b.errors.Add(1)
	if res.err == nil {
		// A retryable saturation/unavailability status: the backend
		// answered, so no failure is noted against its lifecycle.
		return false
	}
	b.noteFailure(g.cfg.UnhealthyThreshold)
	if r.Context().Err() != nil {
		// The client went away (or its deadline passed) mid-attempt;
		// nothing to retry for.
		writeJSON(w, statusClientClosedRequest, map[string]string{"error": "client cancelled: " + res.err.Error()})
		return true
	}
	if singleFlight && !dialError(res.err) {
		// The request may have reached the backend and died mid-air; a
		// resend could double-submit the job. Report instead.
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error": "job submission failed after reaching a backend; not retried (single-flight): " + res.err.Error(),
		})
		return true
	}
	return false
}

// exhausted writes the terminal failure after the retry loop gives up:
// the last upstream answer when there was one (a saturated fleet's 429
// passes through, Retry-After intact), 503 when no backend was ever
// routable, 502 otherwise.
func (g *Gateway) exhausted(w http.ResponseWriter, last *upstreamResult, tried map[*Backend]bool) {
	switch {
	case last != nil && last.err == nil:
		relay(w, last)
	case last != nil:
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error": fmt.Sprintf("all %d backend attempts failed; last: %v", len(tried), last.err),
		})
	default:
		g.metrics.unroutable.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(g.cfg.ProbeInterval.Seconds())+1))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no serving backend"})
	}
}

// attempt forwards once to b, buffering the full response.
func (g *Gateway) attempt(ctx context.Context, b *Backend, method, path string, inbound http.Header, body []byte) *upstreamResult {
	b.requests.Add(1)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return &upstreamResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := inbound.Get("X-Request-Id"); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return &upstreamResult{err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return &upstreamResult{err: err}
	}
	return &upstreamResult{status: resp.StatusCode, header: resp.Header, body: payload}
}

// forwardJob routes GET/DELETE /v1/jobs/{id} by the backend prefix a
// gateway-issued job ID carries ("b2-job-000017" lives on backend b2),
// so polls and cancels reach the store that holds the job with no
// affinity table — the routing survives gateway restarts. Transport
// errors retry on the same backend only: no other backend has the job.
func (g *Gateway) forwardJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name, rest, ok := strings.Cut(id, "-")
	b := g.byName[name]
	if !ok || b == nil || rest == "" {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("unknown job %q: gateway job IDs carry their backend prefix (e.g. %q)", id, "b0-job-000001"),
		})
		return
	}
	path := "/v1/jobs/" + rest
	backoff := g.cfg.RetryBackoff
	var res *upstreamResult
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		res = g.attempt(r.Context(), b, r.Method, path, r.Header, nil)
		if res.err == nil {
			relay(w, res)
			return
		}
		b.errors.Add(1)
		b.noteFailure(g.cfg.UnhealthyThreshold)
		if r.Context().Err() != nil {
			writeJSON(w, statusClientClosedRequest, map[string]string{"error": "client cancelled: " + res.err.Error()})
			return
		}
		if attempt == g.cfg.MaxAttempts-1 {
			break
		}
		b.retries.Add(1)
		if !g.pause(w, r, backoff) {
			return
		}
		backoff *= 2
	}
	writeJSON(w, http.StatusBadGateway, map[string]string{
		"error": fmt.Sprintf("backend %s holding job %s is unreachable: %v", b.name, id, res.err),
	})
}

// rewriteJobSubmit prefixes an accepted job's ID (and status URL) with
// the owning backend's name — the whole affinity mechanism.
func rewriteJobSubmit(b *Backend, res *upstreamResult) {
	if res.status != http.StatusAccepted {
		return
	}
	var sub service.JobSubmitResponse
	if err := json.Unmarshal(res.body, &sub); err != nil {
		return
	}
	sub.ID = b.name + "-" + sub.ID
	sub.StatusURL = "/v1/jobs/" + sub.ID
	var buf bytes.Buffer
	if json.NewEncoder(&buf).Encode(&sub) == nil {
		res.body = buf.Bytes()
	}
}

// routable snapshots the serving backends not yet tried this request.
func (g *Gateway) routable(tried map[*Backend]bool) []*Backend {
	pool := make([]*Backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.State() == StateServing && !tried[b] {
			pool = append(pool, b)
		}
	}
	return pool
}

// retryableStatus reports whether a buffered upstream status may be
// retried on another backend. Saturation (429) and unavailability
// (502/503) are always retryable — the backend refused the work.
// 500 retries only for idempotent requests: equal seeds rank
// identically, so re-running them elsewhere is safe; a job submit is
// not resent past a response that proves acceptance was possible.
func retryableStatus(status int, singleFlight bool) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	case http.StatusInternalServerError:
		return !singleFlight
	}
	return false
}

// dialError reports whether err failed before any bytes reached the
// backend — the only transport failure a single-flight request may
// retry.
func dialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// retryAfterHint parses an integer-seconds Retry-After header (the
// form fairrankd emits); 0 means no hint.
func retryAfterHint(h http.Header) time.Duration {
	if h == nil {
		return 0
	}
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// relay writes a buffered upstream response to the client verbatim:
// status, content type, saturation hints, and body bytes — equal-seed
// responses through the gateway stay bit-identical to direct ones.
func relay(w http.ResponseWriter, res *upstreamResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// statusClientClosedRequest mirrors fairrankd's 499 for client
// cancellations observed at the gateway.
const statusClientClosedRequest = 499

// statusRecorder captures the response status for the route counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	if sr.status == 0 {
		sr.status = status
	}
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

func (sr *statusRecorder) Status() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
