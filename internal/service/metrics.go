package service

import (
	"sort"
	"sync/atomic"
	"time"
)

// routeStats is the per-route transport counter set maintained by the
// metrics middleware. Latency is accumulated in microseconds so the
// counters stay integral and atomic.
type routeStats struct {
	requests  atomic.Int64
	inflight  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	latUsSum  atomic.Int64
	latUsMax  atomic.Int64
}

func (rs *routeStats) observe(status int, elapsed time.Duration) {
	switch {
	case status >= 500:
		rs.errors5xx.Add(1)
	case status >= 400:
		rs.errors4xx.Add(1)
	}
	us := elapsed.Microseconds()
	rs.latUsSum.Add(us)
	for {
		cur := rs.latUsMax.Load()
		if us <= cur || rs.latUsMax.CompareAndSwap(cur, us) {
			return
		}
	}
}

// metrics holds the transport layer's counters: one routeStats per
// registered route pattern, plus the panic counter maintained by the
// recovery middleware. Routes register at handler construction, so
// reads are lock-free.
type metrics struct {
	routes map[string]*routeStats
	panics atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{routes: make(map[string]*routeStats)}
}

// route returns (registering if needed) the stats of a route pattern.
// Registration happens only during NewHandler, before serving starts.
func (m *metrics) route(pattern string) *routeStats {
	rs, ok := m.routes[pattern]
	if !ok {
		rs = &routeStats{}
		m.routes[pattern] = rs
	}
	return rs
}

// Metrics assembles the full observability snapshot served by
// GET /v1/metrics: per-route transport counters, admission-queue
// gauges, job-layer gauges, and the engine counters of the one Ranker
// that serves every request.
func (s *Service) Metrics() *MetricsResponse {
	resp := &MetricsResponse{
		Queue:  s.queueGauges(),
		Jobs:   s.jobGauges(),
		Panics: s.stats.panics.Load(),
	}
	names := make([]string, 0, len(s.stats.routes))
	for name := range s.stats.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := s.stats.routes[name]
		resp.Routes = append(resp.Routes, RouteMetrics{
			Route:        name,
			Requests:     rs.requests.Load(),
			InFlight:     rs.inflight.Load(),
			Errors4xx:    rs.errors4xx.Load(),
			Errors5xx:    rs.errors5xx.Load(),
			LatencyMsSum: float64(rs.latUsSum.Load()) / 1000,
			LatencyMsMax: float64(rs.latUsMax.Load()) / 1000,
		})
	}
	st := s.ranker.Stats()
	resp.Engine = EngineMetrics{
		RankersCached:         1,
		Requests:              st.Requests,
		Draws:                 st.Draws,
		DrawsFull:             st.DrawsFull,
		DrawsTruncated:        st.DrawsTruncated,
		DrawsTruncatedByNoise: st.DrawsTruncatedByNoise,
		PoolGets:              st.PoolGets,
		PoolMisses:            st.PoolMisses,
		TableHits:             st.TableHits,
		TableMisses:           st.TableMisses,
	}
	return resp
}

// Readyz assembles the readiness snapshot served by GET /readyz and
// reports whether the service is ready (not draining). The snapshot is
// a few atomic loads — cheap enough for aggressive probe cadences.
func (s *Service) Readyz() (*ReadyzResponse, bool) {
	admitted, inflight, waiting, _ := s.queue.gauges()
	resp := &ReadyzResponse{
		Status: "ready",
		Queue: ReadyzQueue{
			Workers:  s.cfg.Workers,
			Depth:    s.cfg.QueueDepth,
			Admitted: admitted,
			InFlight: inflight,
			Queued:   waiting,
		},
		JobsRunning: s.jobGauges().Running,
	}
	if s.Draining() {
		resp.Status = "draining"
		return resp, false
	}
	return resp, true
}

func (s *Service) queueGauges() QueueMetrics {
	admitted, inflight, waiting, rejected := s.queue.gauges()
	return QueueMetrics{
		Workers:     s.cfg.Workers,
		Depth:       s.cfg.QueueDepth,
		QueueWaitMs: float64(s.cfg.QueueWait) / float64(time.Millisecond),
		Admitted:    admitted,
		InFlight:    inflight,
		Queued:      waiting,
		Rejected:    rejected,
	}
}
