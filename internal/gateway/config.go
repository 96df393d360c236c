// Package gateway is the fleet scale-out layer: an HTTP reverse proxy
// that spreads fairrankd traffic across N backends.
//
// Each forwarding attempt goes to the least-loaded serving backend the
// request has not yet tried (see pick): every backend serves every
// request configuration from one engine, so routing needs nothing from
// the request body. Each backend runs a supervised probe lifecycle
// (probing → serving → degraded → draining, driven by periodic
// /healthz + /readyz polls), and the forwarding path retries with
// backoff — honoring Retry-After on 429/503, bounding each attempt with
// its own timeout, and keeping non-idempotent job submissions
// single-flight.
//
// The gateway serves its own GET /v1/metrics (per-backend
// request/error/retry/inflight counters, picker decisions, probe state
// transitions) plus an aggregated fleet view summing the backends'
// engine metrics, and a GET /readyz that is ready iff at least one
// backend is serving. cmd/fairrank-gateway exposes it over HTTP;
// fairrank-soak's fleet drill runs it in-process around real
// service.Server backends.
package gateway

import (
	"net/http"
	"net/url"
	"time"
)

// Config parameterizes the gateway. Backends is required; everything
// else has serving-grade defaults.
type Config struct {
	// Backends lists the fairrankd base URLs (e.g.
	// "http://10.0.0.1:8080"). Backend i is named "b<i>"; the name
	// breaks load ties and prefixes gateway-issued job IDs, so keep the
	// order stable across gateway restarts.
	Backends []string

	// ProbeInterval is the cadence of the per-backend health/readiness
	// probe loop. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe round trip. Default 1s.
	ProbeTimeout time.Duration
	// HealthyThreshold is the consecutive probe successes a probing or
	// degraded backend needs to become serving. Default 2.
	HealthyThreshold int
	// UnhealthyThreshold is the consecutive failures (probe or forward)
	// that degrade a serving backend. Default 2.
	UnhealthyThreshold int

	// MaxAttempts bounds the forwarding attempts per proxied request,
	// first try included. Default 3.
	MaxAttempts int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// subsequent retry. A 429/503 carrying Retry-After overrides the
	// computed backoff (capped at RetryBackoffMax). Default 50ms.
	RetryBackoff time.Duration
	// RetryBackoffMax caps both the exponential backoff and an honored
	// Retry-After hint. Default 2s.
	RetryBackoffMax time.Duration
	// AttemptTimeout bounds each forwarding attempt; the inbound
	// request's own context still cancels everything. Default 60s.
	AttemptTimeout time.Duration

	// MaxBodyBytes bounds inbound request bodies. Default 32 MiB.
	MaxBodyBytes int64

	// Client overrides the upstream HTTP client (tests). Default: a
	// keep-alive transport sized for fleet fan-out, with no overall
	// timeout — AttemptTimeout bounds attempts.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.HealthyThreshold <= 0 {
		c.HealthyThreshold = 2
	}
	if c.UnhealthyThreshold <= 0 {
		c.UnhealthyThreshold = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 2 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c
}

// validate rejects an unusable backend list before anything starts.
func (c Config) validate() error {
	if len(c.Backends) == 0 {
		return errNoBackends
	}
	seen := make(map[string]bool, len(c.Backends))
	for _, b := range c.Backends {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return errBadBackend(b)
		}
		if seen[b] {
			return errDupBackend(b)
		}
		seen[b] = true
	}
	return nil
}
