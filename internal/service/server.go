package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"repro/internal/jobstore"
)

// ServerConfig parameterizes a Server: the service configuration plus
// the HTTP serving shape. The zero value listens on :8080 with the
// service defaults.
type ServerConfig struct {
	Config
	// Addr is the listen address. "127.0.0.1:0" picks a free port —
	// the in-process spawn mode tests, fairrank-soak, and the gateway
	// fleet harness use to run real backends without orchestration.
	// Default ":8080".
	Addr string
	// DrainTimeout is the grace period Shutdown grants in-flight
	// requests and running jobs when its context carries no deadline of
	// its own. Default 30s. When the grace period expires with jobs
	// still running, a durable store (JobDir) keeps their progress: the
	// supervisors hand the jobs back as pending on the way out and the
	// next start resumes them.
	DrainTimeout time.Duration
	// JobDir, when nonempty, stores async jobs durably in this
	// directory (fairrankd's -job-dir flag): NewServer opens the
	// WAL-backed store, replays it, and re-enqueues whatever an earlier
	// process left unfinished. Empty keeps jobs in memory. Mutually
	// exclusive with Config.JobStore (which wins if both are set).
	JobDir string
}

// Server is the canonical fairrankd serving loop — flags → Config →
// http.Server with the full drain sequence — exported so cmd/fairrankd
// shrinks to flag parsing and so tests, fairrank-soak, and the gateway
// can spawn real in-process backends over real listeners.
//
// Lifecycle: NewServer → Start (binds the listener, serves in the
// background) → Shutdown (graceful drain) or Close (abrupt stop — the
// fleet harness's backend-kill switch). Err delivers the serve loop's
// terminal error.
type Server struct {
	cfg       ServerConfig
	svc       *Service
	http      *http.Server
	ln        net.Listener
	errc      chan error
	recovered int
}

// NewServer builds a Server around a fresh Service. When JobDir is set
// it opens (replaying) the durable job store and re-enqueues every
// unfinished job before returning — resumed work starts draining as
// soon as Start serves. Nothing listens until Start.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.JobStore == nil && cfg.JobDir != "" {
		store, err := jobstore.Open(cfg.JobDir)
		if err != nil {
			return nil, err
		}
		cfg.JobStore = store
	}
	svc := New(cfg.Config)
	s := &Server{
		cfg: cfg,
		svc: svc,
		http: &http.Server{
			Handler:           NewHandler(svc),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       60 * time.Second,
			WriteTimeout:      120 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		errc: make(chan error, 1),
	}
	s.recovered = svc.ResumeJobs() // a no-op on a fresh memory store
	return s, nil
}

// Recovered reports how many unfinished jobs NewServer re-enqueued
// from the durable store.
func (s *Server) Recovered() int { return s.recovered }

// Service exposes the underlying Service (metrics, drain state) to
// embedders like the soak harness.
func (s *Server) Service() *Service { return s.svc }

// Start binds the configured address and serves in the background.
// After it returns, Addr/URL report the bound address (resolving the
// ":0" form) and the server accepts requests.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		err := s.http.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.errc <- err
	}()
	return nil
}

// Addr is the bound listen address; valid after Start.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL is the server's HTTP base URL; valid after Start.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Err delivers the serve loop's terminal error: nil after a clean
// Shutdown/Close, the listener failure otherwise. It fires once.
func (s *Server) Err() <-chan error { return s.errc }

// Shutdown runs the full drain sequence, in dependency order: withdraw
// readiness (/readyz 503, new job submissions rejected) so load
// balancers stop routing first, give running jobs and in-flight
// requests the grace period, shut the HTTP server down, then
// hard-cancel whatever jobs remain. When ctx carries no deadline the
// configured DrainTimeout bounds the grace period. A grace period that
// expires with work still running is reported as context.DeadlineExceeded
// after the sequence completes; it is not fatal — the hard stop already
// happened.
func (s *Server) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	s.svc.BeginDrain()
	jobsErr := s.svc.DrainJobs(ctx)
	httpErr := s.http.Shutdown(ctx)
	s.svc.Close()
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	if jobsErr != nil {
		return jobsErr
	}
	return httpErr
}

// Close stops the server abruptly: the listener and every open
// connection are closed and running jobs are cancelled, with no drain.
// This is the fleet harness's backend-kill switch; production shutdown
// should use Shutdown.
func (s *Server) Close() error {
	err := s.http.Close()
	s.svc.Close()
	return err
}
