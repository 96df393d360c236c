package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// State is a backend's position in the supervised lifecycle:
//
//	probing ──(HealthyThreshold consecutive probe successes)──▶ serving
//	serving ──(UnhealthyThreshold consecutive failures)───────▶ degraded
//	serving ──(readyz answers "draining")─────────────────────▶ draining
//	degraded/draining ──(HealthyThreshold successes)──────────▶ serving
//	draining ──(UnhealthyThreshold failures)──────────────────▶ degraded
//
// Only serving backends receive new routed work. Job-affinity
// traffic (GET/DELETE /v1/jobs/{id}) follows its backend regardless of
// state — a draining backend still owes answers for the jobs it holds.
type State int32

const (
	// StateProbing is the initial state: the backend has not yet proven
	// itself healthy and receives no traffic.
	StateProbing State = iota
	// StateServing marks a backend passing probes and receiving work.
	StateServing
	// StateDegraded marks a backend failing probes or forwards; it
	// receives no new work until probes recover.
	StateDegraded
	// StateDraining marks a backend that answered readyz with
	// "draining": it is shutting down gracefully and must not receive
	// new work, but still completes what it holds.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateProbing:
		return "probing"
	case StateServing:
		return "serving"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	}
	return "unknown"
}

// Backend is one fairrankd instance in the pool: its identity, its
// lifecycle state, the gateway-side forwarding counters, and the load
// snapshot from its last successful readiness probe.
type Backend struct {
	name string // "b<i>", stable in config order
	url  string // base URL, no trailing slash

	state atomic.Int32

	// Gateway-side forwarding counters.
	requests atomic.Int64 // attempts targeted at this backend
	errors   atomic.Int64 // attempts that failed (transport or retryable status)
	retries  atomic.Int64 // retries this backend's failures caused
	inflight atomic.Int64 // attempts currently executing

	// Probe counters.
	probeOK     atomic.Int64
	probeFail   atomic.Int64
	transitions atomic.Int64

	// mu guards the consecutive-outcome counters driving transitions
	// and the reported load snapshot.
	mu           sync.Mutex
	consecOK     int
	consecFail   int
	reported     service.ReadyzQueue
	reportedJobs int
}

// URL is the backend's base URL.
func (b *Backend) URL() string { return b.url }

// State is the backend's current lifecycle state.
func (b *Backend) State() State { return State(b.state.Load()) }

// InFlight is the number of this gateway's forwarding attempts
// executing against the backend right now.
func (b *Backend) InFlight() int64 { return b.inflight.Load() }

// LoadScore ranks backends for the least-loaded picker: the in-flight
// plus queued work the backend reported on its last readiness probe
// (the /readyz snapshot exists precisely so this needs no /v1/metrics
// scrape), plus the requests this gateway currently has in flight to
// it — the between-probe delta the snapshot can't see.
func (b *Backend) LoadScore() int64 {
	b.mu.Lock()
	reported := b.reported.InFlight + b.reported.Queued + int64(b.reportedJobs)
	b.mu.Unlock()
	return reported + b.inflight.Load()
}

// setState flips the lifecycle state, counting the transition.
func (b *Backend) setState(next State) {
	if State(b.state.Swap(int32(next))) != next {
		b.transitions.Add(1)
	}
}

// probeSuccess records one healthy probe round (readyz 200) with its
// load snapshot, promoting the backend to serving at the healthy
// threshold.
func (b *Backend) probeSuccess(threshold int, q service.ReadyzQueue, jobs int) {
	b.probeOK.Add(1)
	b.mu.Lock()
	b.consecOK++
	b.consecFail = 0
	b.reported = q
	b.reportedJobs = jobs
	promote := b.consecOK >= threshold
	b.mu.Unlock()
	if promote {
		b.setState(StateServing)
	}
}

// probeDraining records a graceful-shutdown answer (readyz 503 with
// status "draining"): the backend is alive but must stop receiving new
// work immediately — no threshold.
func (b *Backend) probeDraining() {
	b.probeOK.Add(1)
	b.mu.Lock()
	b.consecOK = 0
	b.consecFail = 0
	b.mu.Unlock()
	b.setState(StateDraining)
}

// probeFailure records one failed probe round, demoting the backend at
// the unhealthy threshold.
func (b *Backend) probeFailure(threshold int) {
	b.probeFail.Add(1)
	b.noteFailure(threshold)
}

// noteFailure is the shared demotion path for probe failures and
// forward-attempt transport failures: the proxy reporting a dead
// connection accelerates detection instead of waiting out the probe
// cadence.
func (b *Backend) noteFailure(threshold int) {
	b.mu.Lock()
	b.consecFail++
	b.consecOK = 0
	demote := b.consecFail >= threshold
	b.mu.Unlock()
	if demote {
		b.setState(StateDegraded)
	}
}

// prober is one backend's supervisor: a loop polling /healthz and
// /readyz every ProbeInterval and feeding the outcomes into the
// backend's state machine.
type prober struct {
	cfg    Config
	b      *Backend
	client *http.Client
	stop   chan struct{}
	done   chan struct{}
}

func newProber(cfg Config, b *Backend) *prober {
	return &prober{cfg: cfg, b: b, client: cfg.Client, stop: make(chan struct{}), done: make(chan struct{})}
}

// run probes immediately, then on the configured cadence, until Stop.
func (p *prober) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.ProbeInterval)
	defer ticker.Stop()
	p.probeOnce()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.probeOnce()
		}
	}
}

func (p *prober) halt() {
	close(p.stop)
	<-p.done
}

// probeOnce runs one probe round: liveness first (a dead process fails
// fast), then readiness with its load snapshot.
func (p *prober) probeOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	if !p.get(ctx, "/healthz", nil) {
		p.b.probeFailure(p.cfg.UnhealthyThreshold)
		return
	}
	var ready service.ReadyzResponse
	status, ok := p.getJSON(ctx, "/readyz", &ready)
	switch {
	case ok && status == http.StatusOK:
		p.b.probeSuccess(p.cfg.HealthyThreshold, ready.Queue, ready.JobsRunning)
	case ok && status == http.StatusServiceUnavailable && ready.Status == "draining":
		p.b.probeDraining()
	default:
		p.b.probeFailure(p.cfg.UnhealthyThreshold)
	}
}

// get fetches path and reports HTTP 200, decoding into dst when
// non-nil.
func (p *prober) get(ctx context.Context, path string, dst any) bool {
	status, ok := p.getJSON(ctx, path, dst)
	return ok && status == http.StatusOK
}

// getJSON fetches path, returning the status and whether the round
// trip (and decode, when dst is non-nil) succeeded.
func (p *prober) getJSON(ctx context.Context, path string, dst any) (int, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.b.url+path, nil)
	if err != nil {
		return 0, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if dst == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err == nil
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return resp.StatusCode, false
	}
	return resp.StatusCode, true
}
