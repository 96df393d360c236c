package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"

	"repro/internal/service"
)

// metrics holds the gateway's own counters: per-route totals and the
// picker's decision split. Per-backend counters live on the Backend.
// Routes register at handler construction, so reads are lock-free.
type metrics struct {
	routes map[string]*routeStats

	pickPrimary  atomic.Int64 // first attempts of a request
	pickFallback atomic.Int64 // attempts after a failed one
	unroutable   atomic.Int64 // no serving backend at all
}

type routeStats struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
}

func newGatewayMetrics() *metrics {
	return &metrics{routes: make(map[string]*routeStats)}
}

func (m *metrics) route(pattern string) *routeStats {
	rs, ok := m.routes[pattern]
	if !ok {
		rs = &routeStats{}
		m.routes[pattern] = rs
	}
	return rs
}

func (rs *routeStats) observe(status int) {
	switch {
	case status >= 500:
		rs.errors5xx.Add(1)
	case status >= 400:
		rs.errors4xx.Add(1)
	}
}

// MetricsResponse answers the gateway's GET /v1/metrics: the gateway's
// own route counters, the per-backend forwarding/probe state, the
// picker decision split, and the aggregated fleet view.
type MetricsResponse struct {
	// Routes lists one counter set per gateway route, sorted by
	// pattern.
	Routes []RouteMetrics `json:"routes"`
	// Backends lists one entry per configured backend, in config
	// order.
	Backends []BackendMetrics `json:"backends"`
	// Picker reports the routing policy and its decision split.
	Picker PickerMetrics `json:"picker"`
	// Fleet aggregates the backends' own engine metrics, fetched live
	// from each serving backend's GET /v1/metrics at snapshot time.
	Fleet FleetMetrics `json:"fleet"`
}

// RouteMetrics is the counter set of one gateway route.
type RouteMetrics struct {
	Route     string `json:"route"`
	Requests  int64  `json:"requests"`
	Errors4xx int64  `json:"errors_4xx"`
	Errors5xx int64  `json:"errors_5xx"`
}

// BackendMetrics is the gateway's view of one backend: lifecycle
// state, forwarding counters, probe history, and the load snapshot
// from the last successful readiness probe.
type BackendMetrics struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
	// Requests counts forwarding attempts targeted at the backend;
	// Errors the subset that failed (transport error or retryable
	// status); Retries the retries those failures caused; InFlight the
	// attempts executing right now.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Retries  int64 `json:"retries"`
	InFlight int64 `json:"in_flight"`
	// ProbeSuccesses/ProbeFailures count probe rounds; Transitions the
	// lifecycle state changes they drove.
	ProbeSuccesses int64 `json:"probe_successes"`
	ProbeFailures  int64 `json:"probe_failures"`
	Transitions    int64 `json:"transitions"`
	// ReportedInFlight/ReportedQueued/ReportedJobs echo the backend's
	// last /readyz load snapshot — the least-loaded picker's input.
	ReportedInFlight int64 `json:"reported_in_flight"`
	ReportedQueued   int64 `json:"reported_queued"`
	ReportedJobs     int   `json:"reported_jobs"`
}

// PickerMetrics reports the routing policy's decision split: Primary
// counts the first forwarding attempt of each request, Fallback the
// attempts made after a failed one, Unroutable requests refused
// because no backend was serving.
type PickerMetrics struct {
	Policy     string `json:"policy"`
	Primary    int64  `json:"primary"`
	Fallback   int64  `json:"fallback"`
	Unroutable int64  `json:"unroutable"`
}

// FleetMetrics is the aggregated fleet view: engine counters summed
// over the backends that answered a live GET /v1/metrics fan-out.
// Backends counts the fleet size, Reporting how many answered (a
// degraded backend drops out of the sum, so totals can regress between
// snapshots), Serving how many are currently routable.
type FleetMetrics struct {
	Backends  int                   `json:"backends"`
	Serving   int                   `json:"serving"`
	Reporting int                   `json:"reporting"`
	Engine    service.EngineMetrics `json:"engine"`
}

// Metrics assembles the gateway snapshot, fanning out to the serving
// backends for the aggregated fleet view.
func (g *Gateway) Metrics(ctx context.Context) *MetricsResponse {
	resp := &MetricsResponse{
		Picker: PickerMetrics{
			Policy:     policy,
			Primary:    g.metrics.pickPrimary.Load(),
			Fallback:   g.metrics.pickFallback.Load(),
			Unroutable: g.metrics.unroutable.Load(),
		},
	}
	names := make([]string, 0, len(g.metrics.routes))
	for name := range g.metrics.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := g.metrics.routes[name]
		resp.Routes = append(resp.Routes, RouteMetrics{
			Route:     name,
			Requests:  rs.requests.Load(),
			Errors4xx: rs.errors4xx.Load(),
			Errors5xx: rs.errors5xx.Load(),
		})
	}
	resp.Fleet.Backends = len(g.backends)
	for _, b := range g.backends {
		b.mu.Lock()
		reported, jobs := b.reported, b.reportedJobs
		b.mu.Unlock()
		resp.Backends = append(resp.Backends, BackendMetrics{
			Name:             b.name,
			URL:              b.url,
			State:            b.State().String(),
			Requests:         b.requests.Load(),
			Errors:           b.errors.Load(),
			Retries:          b.retries.Load(),
			InFlight:         b.inflight.Load(),
			ProbeSuccesses:   b.probeOK.Load(),
			ProbeFailures:    b.probeFail.Load(),
			Transitions:      b.transitions.Load(),
			ReportedInFlight: reported.InFlight,
			ReportedQueued:   reported.Queued,
			ReportedJobs:     jobs,
		})
		if b.State() == StateServing {
			resp.Fleet.Serving++
		}
	}
	for _, b := range g.backends {
		if b.State() != StateServing {
			continue
		}
		var m service.MetricsResponse
		if g.fetchBackendMetrics(ctx, b, &m) {
			resp.Fleet.Reporting++
			e := &resp.Fleet.Engine
			e.RankersCached += m.Engine.RankersCached
			e.Requests += m.Engine.Requests
			e.Draws += m.Engine.Draws
			e.DrawsFull += m.Engine.DrawsFull
			e.DrawsTruncated += m.Engine.DrawsTruncated
			for noise, c := range m.Engine.DrawsTruncatedByNoise {
				if e.DrawsTruncatedByNoise == nil {
					e.DrawsTruncatedByNoise = make(map[string]int64)
				}
				e.DrawsTruncatedByNoise[noise] += c
			}
			e.PoolGets += m.Engine.PoolGets
			e.PoolMisses += m.Engine.PoolMisses
			e.TableHits += m.Engine.TableHits
			e.TableMisses += m.Engine.TableMisses
		}
	}
	return resp
}

// fetchBackendMetrics pulls one backend's /v1/metrics for the fleet
// aggregate, bounded by the probe timeout so a wedged backend cannot
// stall the gateway's own metrics endpoint.
func (g *Gateway) fetchBackendMetrics(ctx context.Context, b *Backend, dst *service.MetricsResponse) bool {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/metrics", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return json.NewDecoder(resp.Body).Decode(dst) == nil
}
