// Package service is the serving layer over the fairrank library,
// organized as a four-layer pipeline:
//
//	transport  → composable HTTP middleware (request IDs, access logs,
//	             panic recovery, per-route metrics) over a rebuilt mux
//	admission  → a bounded queue in front of the worker pool: fast
//	             ErrSaturated (HTTP 429 + Retry-After) instead of
//	             unbounded blocking, with a queue-wait budget
//	jobs       → an async job store + supervisor: submit a batch, poll
//	             progress, fetch results, cancel; items drain through
//	             the same admission queue as synchronous traffic
//	engine     → typed DTOs, validation, and one reusable
//	             fairrank.Ranker serving every request's configuration
//
// cmd/fairrankd exposes it over HTTP; the package itself is
// transport-agnostic so other frontends (gRPC, queues) can reuse it.
//
// Responses are deterministic: equal requests with equal seeds produce
// equal rankings, regardless of worker count, batch position, or
// sync-vs-async submission.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fairrank "repro"
	"repro/internal/jobstore"
)

// ErrInvalid tags failures caused by the request rather than the
// service; transports should map it to their bad-request status.
var ErrInvalid = errors.New("invalid request")

// invalidf wraps a request-caused failure with ErrInvalid.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Config parameterizes the service. The zero value is usable.
type Config struct {
	// Workers bounds the service's total ranking concurrency: at most
	// Workers goroutines sample at any moment, shared between the
	// parallel best-of-m draws of single requests, the entries of
	// batches, and async job items. Default GOMAXPROCS.
	Workers int
	// MaxCandidates rejects larger candidate pools. Default 100000.
	MaxCandidates int
	// MaxBatch rejects larger batches (sync and per job). Default 1024.
	MaxBatch int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot beyond the Workers already executing. At the bound,
	// admission fails fast with ErrSaturated (HTTP 429 + Retry-After)
	// instead of blocking. Default 4×Workers.
	QueueDepth int
	// QueueWait is the per-request deadline budget inside the admission
	// queue: the longest an admitted synchronous request — a single
	// rank, or a batch at its start — may wait for a worker slot before
	// failing with ErrSaturated. Entries of a batch that has started
	// are exempt (an admitted batch completes whole rather than
	// dropping items mid-flight), as are async job items — absorbing
	// backlog is what jobs are for. Default 10s.
	QueueWait time.Duration
	// MaxJobs bounds concurrently stored async jobs (running or
	// retained finished). At the bound, submissions fail with
	// ErrSaturated. Default 64.
	MaxJobs int
	// JobTTL evicts finished (done or cancelled) jobs this long after
	// completion; a background sweeper (see SweepEvery) enforces it, so
	// TTL bounds a finished job's lifetime even on an idle server.
	// Default 10m.
	JobTTL time.Duration
	// SweepEvery is the cadence of the background TTL sweeper. Default
	// 30s, capped at JobTTL so a short test TTL implies a sweeper that
	// can actually observe it.
	SweepEvery time.Duration
	// JobStore persists async jobs. Nil means a fresh in-memory store
	// (jobstore.New: jobs die with the process); hand it a durable one —
	// jobstore.Open, fairrankd's -job-dir flag — and jobs survive
	// restarts, with ResumeJobs re-enqueuing whatever a crash
	// interrupted. The Service takes ownership: Close closes the store.
	JobStore *jobstore.Store
	// WebhookTimeout bounds each completion-event delivery attempt.
	// Default 5s.
	WebhookTimeout time.Duration
	// WebhookBackoff is the delay before the first webhook retry; it
	// doubles per attempt. Default 250ms.
	WebhookBackoff time.Duration
	// WebhookAttempts bounds delivery attempts per process run; an
	// exhausted budget leaves the event durably unsent, so a restart
	// tries again (at-least-once). Default 5.
	WebhookAttempts int
	// AccessLog, when non-nil, receives one structured line per HTTP
	// request from the transport middleware. Nil disables access
	// logging (the default — tests and embedded uses stay quiet).
	AccessLog *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 100000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 30 * time.Second
	}
	if c.SweepEvery > c.JobTTL {
		c.SweepEvery = c.JobTTL
	}
	if c.WebhookTimeout <= 0 {
		c.WebhookTimeout = 5 * time.Second
	}
	if c.WebhookBackoff <= 0 {
		c.WebhookBackoff = 250 * time.Millisecond
	}
	if c.WebhookAttempts <= 0 {
		c.WebhookAttempts = 5
	}
	return c
}

// Service ranks requests. Construct with New; safe for concurrent use.
type Service struct {
	cfg   Config
	queue *queue          // admission/scheduling layer over the worker pool
	store *jobstore.Store // job records (Config.JobStore or a fresh memory store)
	stats *metrics        // per-route transport counters, shared with the handler

	draining atomic.Bool // readiness withdrawn; no new work admitted

	jobsCtx    context.Context // parent of every job's context
	jobsCancel context.CancelFunc
	// drainMu orders job admission against the drain flip: SubmitJob
	// checks draining and registers with jobsWG under it, BeginDrain
	// sets the flag under it. Any submission therefore either completes
	// its jobsWG.Add before BeginDrain returns — and is awaited by
	// DrainJobs — or observes draining and is refused; jobsWG.Add can
	// never race jobsWG.Wait.
	drainMu sync.Mutex
	jobsWG  sync.WaitGroup // one per live job supervisor
	bgWG    sync.WaitGroup // background work: TTL sweeper, webhook deliveries

	// running maps live job IDs to their supervisor's cancel handle —
	// the job layer's process-local view, distinct from the store's
	// persisted records.
	runningMu sync.Mutex
	running   map[string]context.CancelFunc

	itemsDone atomic.Int64 // job items completed, this process
	recovered atomic.Int64 // jobs re-enqueued by ResumeJobs

	webhookClient    *http.Client
	webhookAttempts  atomic.Int64
	webhookDelivered atomic.Int64
	webhookRetries   atomic.Int64
	webhookExhausted atomic.Int64

	// ranker serves every request: each wire field travels on the
	// fairrank.Request, and the engine keys its amortized state by
	// (pool size, θ) alone.
	ranker *fairrank.Ranker
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	store := cfg.JobStore
	if store == nil {
		store = jobstore.New()
	}
	ranker, err := fairrank.NewRanker(fairrank.Config{})
	if err != nil {
		panic(err) // the zero Config names only built-ins, so it always validates
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:           cfg,
		queue:         newQueue(cfg.Workers, cfg.QueueDepth, cfg.QueueWait),
		store:         store,
		stats:         newMetrics(),
		jobsCtx:       ctx,
		jobsCancel:    cancel,
		running:       make(map[string]context.CancelFunc),
		webhookClient: &http.Client{Timeout: cfg.WebhookTimeout},
		ranker:        ranker,
	}
	s.bgWG.Add(1)
	go s.sweepLoop()
	return s
}

// BeginDrain withdraws readiness: /readyz turns 503 and new job
// submissions are rejected with ErrDraining, while in-flight requests
// and already-accepted jobs keep running. Call it on SIGTERM before
// http.Server.Shutdown so load balancers stop routing first. Once it
// returns, every job DrainJobs must wait for has already registered.
func (s *Service) BeginDrain() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// DrainJobs blocks until every accepted job reaches a terminal state,
// or ctx expires. It does not cancel anything; pair with Close for the
// hard stop after the grace period.
func (s *Service) DrainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every still-running job, waits for their supervisors
// and the background workers to exit, and closes the job store. On a
// durable store the cancelled supervisors hand their jobs back as
// pending first, so a later process resumes them with their progress
// intact. The Service must not be used afterwards.
func (s *Service) Close() {
	s.BeginDrain()
	s.jobsCancel()
	s.jobsWG.Wait()
	s.bgWG.Wait()
	s.store.Close()
}

// Rank serves one ranking request through the admission queue. The
// best-of-m Mallows draws run on as many idle workers as the pool has
// free (at least one); the worker count never changes the result. A
// saturated queue fails fast with ErrSaturated — but validation runs
// first, so an invalid request is a 400 whatever the load, and never
// consumes an admission ticket.
func (s *Service) Rank(ctx context.Context, req *RankRequest) (*RankResponse, error) {
	if err := s.validate(req); err != nil {
		return nil, err
	}
	if err := s.queue.Admit(); err != nil {
		return nil, err
	}
	defer s.queue.Done()
	return s.rank(ctx, req, s.cfg.Workers, true)
}

// RankBatch serves independent requests concurrently through the worker
// pool and returns one BatchItem per request, in request order. Entries
// fail independently: a bad request yields an Error item without
// affecting its neighbors. The batch occupies one admission-queue
// position as a whole and is budget-bounded at its start like any sync
// request: a saturated queue (full gate, or no execution slot freeing
// within QueueWait) rejects it up front with ErrSaturated — whole,
// never by dropping entries mid-batch. Once work begins, entries wait
// for slots without a budget, so an admitted batch always completes.
func (s *Service) RankBatch(ctx context.Context, batch *BatchRequest) (*BatchResponse, error) {
	if err := s.validateBatch(batch); err != nil {
		return nil, err
	}
	if err := s.queue.Admit(); err != nil {
		return nil, err
	}
	defer s.queue.Done()
	// The budget probe: refuse the whole batch while the pool is wedged
	// rather than holding the connection open indefinitely. The probe
	// slot is returned immediately — entries acquire their own.
	if err := s.queue.WaitSlot(ctx, true); err != nil {
		return nil, err
	}
	s.queue.ReleaseSlots(1)
	items := s.runBatch(ctx, batch.Requests, nil, nil)
	// A cancelled batch is a transport-level failure of the whole call,
	// not N independent entry failures: report it as such so the HTTP
	// layer maps it to 499 rather than 200-with-error-items.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &BatchResponse{Items: items}, nil
}

// validateBatch rejects malformed batches before admission.
func (s *Service) validateBatch(batch *BatchRequest) error {
	if len(batch.Requests) == 0 {
		return invalidf("empty batch")
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		return invalidf("batch of %d requests exceeds the limit of %d", len(batch.Requests), s.cfg.MaxBatch)
	}
	return nil
}

// runBatch ranks every request into its BatchItem, in order, with at
// most Workers entries in flight at once (each entry still takes an
// execution slot, so total sampling concurrency never exceeds the
// pool). Entries of an admitted batch wait for slots without a budget:
// admission control already happened at the batch boundary, so entries
// can never be dropped mid-batch by saturation. idxs, when non-nil,
// restricts the run to those entry indices — the resume path's "only
// the missing draws re-run" subset; the skipped slots stay zero.
// onItem, when non-nil, observes each completed entry (the async job
// layer's progress hook).
//
// One entry ranks identically here, as a single request, and as a job
// item: DoParallel results are worker-invariant and every path resolves
// the same per-request seed.
func (s *Service) runBatch(ctx context.Context, reqs []RankRequest, idxs []int, onItem func(i int, item BatchItem)) []BatchItem {
	if idxs == nil {
		idxs = make([]int, len(reqs))
		for i := range reqs {
			idxs[i] = i
		}
	}
	items := make([]BatchItem, len(reqs))
	fan := s.cfg.Workers
	if fan > len(idxs) {
		fan = len(idxs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < fan; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// One pool slot per entry: entries parallelize across the
				// pool, draws within an entry stay sequential. ctx flows
				// through to the sampling loop, so cancelling the batch
				// aborts every entry promptly — queued entries at slot
				// wait, running entries between draws. Validation runs
				// before the slot wait, so a bad entry fails without
				// touching the pool.
				var resp *RankResponse
				err := s.validate(&reqs[i])
				if err == nil {
					resp, err = s.rank(ctx, &reqs[i], 1, false)
				}
				if err != nil {
					items[i] = BatchItem{Error: err.Error()}
				} else {
					items[i] = BatchItem{Response: resp}
				}
				if onItem != nil {
					onItem(i, items[i])
				}
			}
		}()
	}
	for _, i := range idxs {
		next <- i
	}
	close(next)
	wg.Wait()
	return items
}

// rank is the engine-layer serving path shared by the sync single,
// sync batch, and async job paths; callers have already validated the
// request. bounded selects the admission queue's wait mode:
// synchronous requests race the queue-wait budget, admitted batch
// entries and job items wait patiently.
func (s *Service) rank(ctx context.Context, req *RankRequest, maxWorkers int, bounded bool) (*RankResponse, error) {
	// An already-cancelled request (a disconnected client, an expired
	// deadline, an aborted batch) does no work at all.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Never hold slots the request cannot use: only the best-of-m loop
	// parallelizes, and at most one goroutine per draw.
	if p := parallelism(req); p < maxWorkers {
		maxWorkers = p
	}
	if err := s.queue.WaitSlot(ctx, bounded); err != nil {
		return nil, err
	}
	workers := 1 + s.queue.TryExtra(maxWorkers-1)
	defer s.queue.ReleaseSlots(workers)
	var weakK *int
	if req.WeakK != 0 {
		weakK = &req.WeakK
	}
	res, err := s.ranker.DoParallel(ctx, fairrank.Request{
		Candidates: req.Candidates,
		Algorithm:  fairrank.Algorithm(req.Algorithm),
		Central:    fairrank.Central(req.Central),
		WeakK:      weakK,
		Sigma:      &req.Sigma,
		Theta:      req.Theta,
		Samples:    req.Samples,
		Criterion:  fairrank.Criterion(req.Criterion),
		Noise:      fairrank.Noise(req.Noise),
		Tolerance:  req.Tolerance,
		TopK:       req.TopK,
		Seed:       &req.Seed,
	}, workers)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Cancellation is the caller's doing, not a bad request;
			// keep it distinguishable from ErrInvalid.
			return nil, ctxErr
		}
		// Remaining ranking failures are input-caused (e.g. a constraint
		// algorithm over groups too small for the tolerance, an unknown
		// algorithm or criterion name); report them as such.
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	d := res.Diagnostics
	if err := checkFinite(&d); err != nil {
		return nil, err
	}
	resp := &RankResponse{
		Algorithm:   string(d.Algorithm),
		Ranking:     make([]RankedCandidate, len(res.Ranking)),
		NDCG:        d.NDCG,
		Diagnostics: d,
	}
	for i, c := range res.Ranking {
		resp.Ranking[i] = RankedCandidate{Rank: i + 1, ID: c.ID, Score: c.Score, Group: c.Group, Attrs: c.Attrs}
	}
	return resp, nil
}

// checkFinite rejects a ranking whose metrics JSON cannot carry. Scores
// near the float64 limit are valid input, but they overflow DCG and IDCG
// to +Inf, and the NDCG, their ratio, is then NaN. The request caused
// it, so the error is an ErrInvalid naming the field.
func checkFinite(d *fairrank.Diagnostics) error {
	var p fairrank.ProbDiagnostics
	if d.Probabilistic != nil {
		p = *d.Probabilistic
	}
	for _, m := range [...]struct {
		name  string
		value float64
	}{
		{"ndcg", d.NDCG},
		{"expected_ppfair", p.ExpectedPPfair},
		{"expected_disparate_exposure", p.ExpectedDisparateExposure},
		{"expected_exposure_gap", p.ExpectedExposureGap},
	} {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return invalidf("%s = %v, want finite", m.name, m.value)
		}
	}
	return nil
}

// validate rejects malformed requests before any ranking work starts.
func (s *Service) validate(req *RankRequest) error {
	if len(req.Candidates) == 0 {
		return invalidf("empty candidate set")
	}
	if len(req.Candidates) > s.cfg.MaxCandidates {
		return invalidf("%d candidates exceed the limit of %d", len(req.Candidates), s.cfg.MaxCandidates)
	}
	seen := make(map[string]bool, len(req.Candidates))
	for i, c := range req.Candidates {
		if c.ID == "" {
			return invalidf("candidate %d has an empty id", i)
		}
		if seen[c.ID] {
			return invalidf("duplicate candidate id %q", c.ID)
		}
		seen[c.ID] = true
		if c.Membership != nil {
			var sum float64
			for name, p := range c.Membership {
				if name == "" {
					return invalidf("candidate %q membership names an empty group", c.ID)
				}
				if math.IsNaN(p) || p < 0 || p > 1 {
					return invalidf("candidate %q membership for group %q = %v, want in [0,1]", c.ID, name, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return invalidf("candidate %q membership sums to %v, want 1", c.ID, sum)
			}
		}
	}
	if req.Theta != nil && !(*req.Theta >= 0) {
		return invalidf("theta = %v, want ≥ 0", *req.Theta)
	}
	if req.Samples != nil && *req.Samples < 1 {
		return invalidf("samples = %d, want ≥ 1", *req.Samples)
	}
	if req.Tolerance != nil && !(*req.Tolerance >= 0) {
		return invalidf("tolerance = %v, want ≥ 0", *req.Tolerance)
	}
	if req.TopK != nil && *req.TopK < 1 {
		return invalidf("top_k = %d, want ≥ 1", *req.TopK)
	}
	if req.WeakK < 0 {
		return invalidf("weak_k = %d, want ≥ 0", req.WeakK)
	}
	if !(req.Sigma >= 0) || math.IsInf(req.Sigma, 0) {
		return invalidf("sigma = %v, want finite ≥ 0", req.Sigma)
	}
	return nil
}

// parallelism returns how many workers the request can actually use:
// the best-of-m draw count for the sampling algorithms whose loop fans
// out (per the registry metadata), 1 for everything else — including
// unknown algorithm names, which fail validation downstream.
func parallelism(req *RankRequest) int {
	name := req.Algorithm
	if name == "" {
		name = string(fairrank.DefaultAlgorithm)
	}
	info, ok := fairrank.LookupAlgorithm(name)
	if !ok || !info.Sampling || !info.BestOf {
		return 1
	}
	if req.Samples != nil {
		return *req.Samples
	}
	return fairrank.DefaultSamples
}

// Catalog describes the rankable surface — every algorithm, noise
// mechanism, central ranking, and selection criterion the service
// accepts, with the value each omitted field resolves to. GET
// /v1/algorithms serves it so clients can introspect instead of
// hardcoding strings.
//
// The algorithm and noise sections are generated at call time from
// fairrank.Algorithms and fairrank.Noises: anything registered through
// fairrank.Register, and every noise mechanism, is immediately servable
// and cataloged, with no serving-layer edit.
func Catalog() *CatalogResponse {
	infos := fairrank.Algorithms()
	algos := make([]AlgorithmInfo, len(infos))
	for i, a := range infos {
		algos[i] = AlgorithmInfo{
			Name:           a.Name,
			Description:    a.Description,
			ReadsGroup:     !a.AttributeBlind,
			AttributeBlind: a.AttributeBlind,
			Deterministic:  a.Deterministic,
			SupportsSigma:  a.SupportsSigma,
			MinGroups:      a.MinGroups,
			MaxGroups:      a.MaxGroups,
			Tunables:       a.Tunables,
			MinMeanPPfair:  a.Guarantees.MinMeanPPfair,
			MinMeanNDCG:    a.Guarantees.MinMeanNDCG,
		}
	}
	noiseInfos := fairrank.Noises()
	noises := make([]OptionInfo, len(noiseInfos))
	for i, n := range noiseInfos {
		noises[i] = OptionInfo{Name: n.Name, Description: n.Description}
	}
	return &CatalogResponse{
		Algorithms: algos,
		Noises:     noises,
		Centrals: []OptionInfo{
			{Name: string(fairrank.CentralWeaklyFair), Description: "score order with the top-weak_k prefix adjusted to weak k-fairness"},
			{Name: string(fairrank.CentralFairDCG), Description: "the DCG-optimal (α,β)-fair ranking (§IV-B program)"},
			{Name: string(fairrank.CentralScoreOrder), Description: "raw score order; all fairness comes from the noise"},
		},
		Criteria: []OptionInfo{
			{Name: string(fairrank.CriterionNDCG), Description: "keep the sample with the highest NDCG"},
			{Name: string(fairrank.CriterionKT), Description: "keep the sample closest to the central ranking in Kendall tau"},
		},
		Defaults: DefaultsInfo{
			Algorithm: string(fairrank.DefaultAlgorithm),
			Central:   string(fairrank.CentralWeaklyFair),
			Criterion: string(fairrank.CriterionNDCG),
			Noise:     string(fairrank.NoiseMallows),
			Theta:     1,
			Samples:   fairrank.DefaultSamples,
			Tolerance: 0.1,
			WeakK:     "min(10, n)",
			Sigma:     0,
			TopK:      "full ranking",
		},
		Membership: MembershipInfo{
			Description: "optional per-candidate distribution over group names (values in [0,1] summing to 1); keys join the group universe, one-hot rows reproduce the deterministic audit bit for bit",
			Metrics:     []string{"expected_ppfair", "expected_infeasible_index", "expected_disparate_exposure", "expected_exposure_gap"},
		},
	}
}
