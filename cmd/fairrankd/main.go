// Command fairrankd serves fair rankings over HTTP.
//
// It exposes the layered serving pipeline of internal/service:
//
//	POST   /v1/rank        rank one candidate pool (sync)
//	POST   /v1/rank/batch  rank many independent pools concurrently (sync)
//	POST   /v1/jobs/rank   submit a batch as an async job (202 + job ID;
//	                       "webhook_url" subscribes to the completion event)
//	GET    /v1/jobs        list jobs (cursor paging, ?state= filters)
//	GET    /v1/jobs/{id}   poll job status/progress; items once done
//	DELETE /v1/jobs/{id}   cancel+delete an unfinished job (finished = 409)
//	GET    /v1/algorithms  introspect algorithms, centrals, criteria, defaults
//	GET    /v1/metrics     per-route, queue, job, and engine counters
//	GET    /healthz        liveness probe
//	GET    /readyz         readiness probe (503 while draining)
//
// Example:
//
//	fairrankd -addr :8080 -workers 8 -queue-depth 32 -job-ttl 10m
//
//	curl -s localhost:8080/v1/rank -d '{
//	  "candidates": [
//	    {"id": "ava",  "score": 5.2, "group": "f"},
//	    {"id": "emil", "score": 9.9, "group": "m"}
//	  ],
//	  "algorithm": "mallows-best", "theta": 1, "samples": 15,
//	  "top_k": 1, "seed": 42
//	}'
//
// theta, samples, criterion, noise, tolerance, top_k, and seed are
// per-request overrides; explicit zeros are honored (theta 0 = uniform
// noise, tolerance 0 = exact proportionality), and "noise" selects the
// randomization mechanism of the sampling algorithms ("mallows",
// "gmallows", "plackett-luce", plus anything registered). The servable
// algorithms are whatever the fairrank registry holds at startup — GET
// /v1/algorithms returns the generated catalog. Every response carries a
// "diagnostics" block: the resolved parameters plus a self-audit of the
// ranking (NDCG, draws evaluated, Kendall tau to the central ranking,
// PPfair and the Two-Sided Infeasible Index over the delivered prefix).
//
// Admission control: ranking work passes through a bounded admission
// queue (-queue-depth positions beyond the -workers executing, each
// sync request bounded by the -queue-wait budget). A saturated queue
// answers 429 with a Retry-After header immediately instead of letting
// backlog build. Async jobs absorb backpressure instead: items drain
// through the same queue without a budget, so soak-scale batches
// neither hold a connection open nor get dropped.
//
// Responses are deterministic: equal requests with equal seeds return
// equal rankings, sync or async. The server amortizes work across
// requests through one reusable ranking engine (see fairrank.Ranker)
// that serves every request field as a per-request override; its
// Mallows tables are keyed by (pool size, θ), so requests of every
// configuration share the cache. Request contexts flow into the sampling
// loops: client disconnects and deadlines abort in-flight work between
// draws.
//
// Durability: with -job-dir set, async jobs persist in a WAL-backed
// store — a restarted (or SIGKILLed) fairrankd replays the directory,
// re-enqueues every unfinished job, and re-runs only the items whose
// results are missing; per-item seeds make the resumed results
// bit-identical to an uninterrupted run. Completion-event webhooks are
// delivered at-least-once across restarts.
//
// On SIGINT/SIGTERM the server drains: readiness goes 503 (load
// balancers stop routing), new job submissions are rejected, running
// jobs and in-flight requests get a grace period to finish, then the
// HTTP server shuts down. Jobs still running past the grace period are
// handed back to the store as pending (with their progress) rather
// than cancelled, so a durable store resumes them on the next start.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("fairrankd: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size bounding ranking concurrency (0 = GOMAXPROCS)")
	maxCandidates := flag.Int("max-candidates", 0, "largest accepted candidate pool (0 = default 100000)")
	maxBatch := flag.Int("max-batch", 0, "largest accepted batch, sync or per job (0 = default 1024)")
	queueDepth := flag.Int("queue-depth", 0, "admission-queue positions beyond the executing workers; full queue answers 429 (0 = default 4×workers)")
	queueWait := flag.Duration("queue-wait", 0, "longest a sync request may wait for a worker slot before 429 (0 = default 10s)")
	maxJobs := flag.Int("max-jobs", 0, "largest number of stored async jobs (0 = default 64)")
	jobTTL := flag.Duration("job-ttl", 0, "how long finished jobs stay fetchable before eviction (0 = default 10m)")
	jobDir := flag.String("job-dir", "", "directory for the durable WAL-backed job store; empty keeps jobs in memory (restarts lose them)")
	webhookTimeout := flag.Duration("webhook-timeout", 0, "per-attempt budget of job completion-event deliveries (0 = default 5s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests and running jobs on shutdown")
	quiet := flag.Bool("quiet", false, "disable per-request access logging")
	flag.Parse()

	var access *slog.Logger
	if !*quiet {
		access = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv, err := service.NewServer(service.ServerConfig{
		Config: service.Config{
			Workers:        *workers,
			MaxCandidates:  *maxCandidates,
			MaxBatch:       *maxBatch,
			QueueDepth:     *queueDepth,
			QueueWait:      *queueWait,
			MaxJobs:        *maxJobs,
			JobTTL:         *jobTTL,
			WebhookTimeout: *webhookTimeout,
			AccessLog:      access,
		},
		Addr:         *addr,
		DrainTimeout: *drainTimeout,
		JobDir:       *jobDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *jobDir != "" {
		log.Printf("durable job store at %s: %d unfinished jobs resumed", *jobDir, srv.Recovered())
	}

	// Enumerate the servable surface from the generated catalog, so the
	// startup log always matches GET /v1/algorithms.
	cat := service.Catalog()
	names := make([]string, len(cat.Algorithms))
	for i, a := range cat.Algorithms {
		names[i] = a.Name
	}
	noiseNames := make([]string, len(cat.Noises))
	for i, n := range cat.Noises {
		noiseNames[i] = n.Name
	}
	log.Printf("serving %d algorithms (%s) with %d noise mechanisms (%s)",
		len(names), strings.Join(names, ", "), len(noiseNames), strings.Join(noiseNames, ", "))

	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-srv.Err():
		log.Fatal(err)
	case sig := <-stop:
		// The Server runs the drain sequence in dependency order: stop
		// being routable (readyz 503, job submissions rejected), let
		// running jobs and in-flight requests finish inside the grace
		// period, shut the HTTP server down, then hard-cancel whatever
		// jobs remain.
		log.Printf("received %s, draining (grace %s)", sig, *drainTimeout)
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Printf("drain: %v", err)
		}
		log.Printf("drained")
	}
}
