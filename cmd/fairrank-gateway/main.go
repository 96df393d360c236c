// Command fairrank-gateway spreads fairrankd traffic across a fleet.
//
// It is the fleet scale-out layer of the serving stack: an HTTP
// reverse proxy that routes /v1/rank, /v1/rank/batch, and /v1/jobs/*
// traffic across N fairrankd backends. Each attempt goes to the
// least-loaded serving backend the request has not yet tried; every
// backend serves every request configuration from one engine, so the
// gateway never decodes a request body.
//
//	fairrank-gateway -addr :9090 \
//	  -backends http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// Each backend runs a supervised probe lifecycle (probing → serving →
// degraded → draining) driven by periodic /healthz + /readyz polls;
// only serving backends receive new work. The readiness body's queue
// snapshot, plus the gateway's own in-flight count, is the load the
// picker compares. Forwards retry with
// exponential backoff across distinct backends, honoring Retry-After
// on 429/503; job submissions are single-flight (never resent once
// they may have reached a backend) and accepted job IDs come back
// prefixed with the owning backend ("b2-job-000017"), so later polls
// and cancels route by the ID alone — no gateway-side affinity state.
//
// Gateway-served endpoints:
//
//	GET /v1/metrics  per-backend request/error/retry/inflight counters,
//	                 picker decisions, probe transitions, and a fleet
//	                 view aggregating the backends' engine metrics
//	GET /healthz     gateway liveness
//	GET /readyz      ready iff ≥ 1 backend is serving (fleet states in
//	                 the body)
//
// Everything else is forwarded. Equal-seed responses through the
// gateway are bit-identical to direct fairrankd responses.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("fairrank-gateway: ")
	addr := flag.String("addr", ":9090", "listen address")
	backends := flag.String("backends", "", "comma-separated fairrankd base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 0, "backend health/readiness probe cadence (0 = default 2s)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe round-trip budget (0 = default 1s)")
	healthyThreshold := flag.Int("healthy-threshold", 0, "consecutive probe successes promoting a backend to serving (0 = default 2)")
	unhealthyThreshold := flag.Int("unhealthy-threshold", 0, "consecutive failures degrading a serving backend (0 = default 2)")
	maxAttempts := flag.Int("max-attempts", 0, "forwarding attempts per request, first try included (0 = default 3)")
	retryBackoff := flag.Duration("retry-backoff", 0, "sleep before the first retry, doubling per retry (0 = default 50ms)")
	retryBackoffMax := flag.Duration("retry-backoff-max", 0, "cap on backoff and honored Retry-After hints (0 = default 2s)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt forwarding budget (0 = default 60s)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight forwards on shutdown")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	cfg := gateway.Config{
		Backends:           urls,
		ProbeInterval:      *probeInterval,
		ProbeTimeout:       *probeTimeout,
		HealthyThreshold:   *healthyThreshold,
		UnhealthyThreshold: *unhealthyThreshold,
		MaxAttempts:        *maxAttempts,
		RetryBackoff:       *retryBackoff,
		RetryBackoffMax:    *retryBackoffMax,
		AttemptTimeout:     *attemptTimeout,
	}
	g, err := gateway.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g.Start()
	defer g.Stop()
	log.Printf("routing across %d backends", len(urls))

	srv := &http.Server{
		Addr:              *addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-stop:
		log.Printf("received %s, draining (grace %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("shutdown: %v", err)
		}
		log.Printf("drained")
	}
}
