package service

import (
	"encoding/json"
	"time"

	fairrank "repro"
)

// Candidate is the wire form of one item to rank: the library's
// candidate, whose JSON tags name the wire fields. Membership values
// must be finite, in [0, 1], and sum to 1 (±1e-9); when any candidate
// carries one, the response diagnostics include the expected-fairness
// audit.
type Candidate = fairrank.Candidate

// RankRequest asks for one fair ranking. Omitted fields take the
// library's Config defaults; pointer fields distinguish "omitted" from
// an explicit zero, which validation rejects where a zero is invalid.
// Each field travels as the fairrank.Request override of its name, and
// the rules below are that field's, enforced by fairrank.Ranker.Check.
type RankRequest struct {
	// Candidates is the pool to rank; must be nonempty with unique,
	// nonempty IDs.
	Candidates []Candidate `json:"candidates"`
	// Algorithm names the post-processor: any name in the fairrank
	// registry, as served by GET /v1/algorithms. Default "mallows-best".
	Algorithm string `json:"algorithm,omitempty"`
	// Central names the Mallows central ranking ("weak", "fair",
	// "score"). Default "weak".
	Central string `json:"central,omitempty"`
	// Criterion names the best-of-m selection criterion ("ndcg", "kt").
	// Default "ndcg".
	Criterion string `json:"criterion,omitempty"`
	// Noise names the randomization mechanism the sampling algorithms
	// draw from: any name fairrank.Noises lists, as served by
	// GET /v1/algorithms. Default "mallows". Algorithms that pin their
	// own mechanism ignore it.
	Noise string `json:"noise,omitempty"`
	// Theta is the Mallows dispersion; must be finite and ≥ 0 when
	// given (0 draws uniformly random permutations). Default 1.
	Theta *float64 `json:"theta,omitempty"`
	// Samples is the best-of-m draw count; must be ≥ 1 when given.
	// Default 15.
	Samples *int `json:"samples,omitempty"`
	// Tolerance widens the proportional constraints; must be ≥ 0 when
	// given (0 demands exact proportionality). Default 0.1.
	Tolerance *float64 `json:"tolerance,omitempty"`
	// TopK truncates the response ranking to the best TopK candidates
	// and scopes the fairness audit to those prefixes; must be ≥ 1 when
	// given (clamped to the pool size). Omitted returns the full
	// ranking.
	TopK *int `json:"top_k,omitempty"`
	// WeakK is the weakly fair prefix length; must be ≥ 1 when given,
	// and at most the pool size on the "weak" central. Default
	// min(10, pool size).
	WeakK int `json:"weak_k,omitempty"`
	// Sigma is the constraint-noise level of the attribute-aware
	// algorithms; must be finite and ≥ 0. Default 0.
	Sigma float64 `json:"sigma,omitempty"`
	// Seed makes the response deterministic: equal requests with equal
	// seeds return equal rankings.
	Seed int64 `json:"seed"`
}

// RankedCandidate is one position of the response ranking.
type RankedCandidate struct {
	// Rank is the 1-based position (1 is the top of the ranking).
	Rank int `json:"rank"`
	// ID, Score, Group, and Attrs echo the request candidate.
	ID    string            `json:"id"`
	Score float64           `json:"score"`
	Group string            `json:"group"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// RankResponse is the result of one ranking request.
type RankResponse struct {
	// Algorithm is the post-processor that produced the ranking.
	Algorithm string `json:"algorithm"`
	// Ranking lists the candidates best first, truncated to the
	// request's top_k when set.
	Ranking []RankedCandidate `json:"ranking"`
	// NDCG is the full-ranking quality against the score-ideal order
	// (kept at the top level for pre-diagnostics clients).
	NDCG float64 `json:"ndcg"`
	// Diagnostics reports the resolved parameters and the self-audit of
	// the ranking.
	Diagnostics Diagnostics `json:"diagnostics"`
}

// Diagnostics is the response's diagnostics block: the library's
// diagnostics, whose JSON tags name the wire fields. It reports the
// parameters the request actually ran with after override resolution,
// and quality/fairness measurements of the returned ranking computed
// from state the engine already held. Probabilistic is present only
// when at least one request candidate stated a membership
// distribution, so hard-label responses are byte-identical to
// pre-membership servers.
type Diagnostics = fairrank.Diagnostics

// ProbDiagnostics is the expected-fairness audit of the diagnostics
// block: the delivered ranking audited against the candidates'
// membership distributions, with expected prefix counts in place of
// hard tallies. One-hot memberships reproduce ppfair/infeasible_index
// bit for bit.
type ProbDiagnostics = fairrank.ProbDiagnostics

// BatchRequest bundles independent ranking requests to run concurrently.
type BatchRequest struct {
	Requests []RankRequest `json:"requests"`
	// WebhookURL, on POST /v1/jobs/rank only, subscribes to the job's
	// completion event: once the job finishes, the service POSTs a
	// JobEvent to this absolute http(s) URL, retrying with exponential
	// backoff until it lands (at-least-once, surviving restarts).
	// Ignored by the synchronous batch endpoint, which already delivers
	// its results in the response.
	WebhookURL string `json:"webhook_url,omitempty"`
}

// BatchItem is the outcome of one batch entry: exactly one of Response
// and Error is set, in the entry's request order.
type BatchItem struct {
	Response *RankResponse `json:"response,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// BatchResponse is the result of a batch, item i answering request i.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// JobSubmitResponse answers POST /v1/jobs/rank: the accepted job's ID
// and where to poll it.
type JobSubmitResponse struct {
	// ID names the job for GET/DELETE /v1/jobs/{id}.
	ID string `json:"id"`
	// Total is the number of batch entries the job will rank.
	Total int `json:"total"`
	// StatusURL is the polling endpoint for this job.
	StatusURL string `json:"status_url"`
}

// JobStatusResponse answers GET /v1/jobs/{id}: the job's state and
// per-item progress, plus the results once the job is done.
type JobStatusResponse struct {
	ID string `json:"id"`
	// State is "pending", "running", "done", or "cancelled".
	State string `json:"state"`
	// Total, Completed, and Failed report per-item progress: Completed
	// counts items that finished (successfully or not), Failed the
	// subset that returned an error.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Items carries the per-entry results, one encoded BatchItem each,
	// in request order, once the job reaches "done"; omitted in every
	// other state. Cancelled jobs never serve items. They are the bytes
	// the job store holds: a done job has every slot filled, since an
	// item is stored before it counts and a job turns done only while
	// its context is alive.
	Items []json.RawMessage `json:"items,omitempty"`
}

// JobListResponse answers GET /v1/jobs: one page of the job listing,
// oldest job first, with the cursor of the next page.
type JobListResponse struct {
	Jobs []JobSummary `json:"jobs"`
	// NextCursor, when nonempty, resumes the listing: pass it as the
	// `after` query parameter of the next request. An empty cursor means
	// the listing is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

// JobSummary is one job in the listing: everything JobStatusResponse
// reports except the per-item results (fetch those from StatusURL).
type JobSummary struct {
	ID string `json:"id"`
	// State is "pending", "running", "done", or "cancelled".
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	// Created and Finished bracket the job's life; Finished is omitted
	// until the job reaches a terminal state.
	Created   time.Time `json:"created"`
	Finished  time.Time `json:"finished,omitzero"`
	StatusURL string    `json:"status_url"`
	// WebhookURL echoes the completion-event subscription, when one was
	// registered; WebhookSent reports whether it has been delivered.
	WebhookURL  string `json:"webhook_url,omitempty"`
	WebhookSent bool   `json:"webhook_sent,omitempty"`
}

// JobEvent is the completion-event payload POSTed to a job's
// webhook_url when the job reaches a terminal state. It deliberately
// excludes the per-item results — events stay small and at-least-once
// delivery stays cheap; receivers fetch the items from StatusURL.
type JobEvent struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	StatusURL string `json:"status_url"`
}

// ReadyzResponse answers GET /readyz: the readiness verdict plus a
// cheap load snapshot — queue depth and in-flight work — so fleet
// probes (the gateway's backend pool) can rank backends by load off
// the readiness path they already poll, without scraping the heavier
// GET /v1/metrics.
type ReadyzResponse struct {
	// Status is "ready" (HTTP 200) or "draining" (HTTP 503).
	Status string `json:"status"`
	// Queue snapshots the admission layer.
	Queue ReadyzQueue `json:"queue"`
	// JobsRunning counts async jobs currently executing; their items
	// occupy the same worker pool as synchronous traffic.
	JobsRunning int `json:"jobs_running"`
}

// ReadyzQueue is the admission-queue slice of the readiness snapshot:
// the static shape (Workers, Depth) plus the live gauges a prober needs
// to estimate load. Admitted counts synchronous requests in the system
// (executing or queued), InFlight execution slots held by any path
// (sync, batch entries, job items), Queued goroutines blocked waiting
// for their first slot — InFlight+Queued is the canonical "how busy"
// score.
type ReadyzQueue struct {
	Workers  int   `json:"workers"`
	Depth    int   `json:"depth"`
	Admitted int64 `json:"admitted"`
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
}

// MetricsResponse answers GET /v1/metrics: per-route transport
// counters, admission-queue gauges, async-job gauges, and engine
// counters, all as plain JSON so any scraper can consume them.
type MetricsResponse struct {
	// Routes lists one counter set per registered route, sorted by
	// route pattern.
	Routes []RouteMetrics `json:"routes"`
	// Queue reports the admission/scheduling layer.
	Queue QueueMetrics `json:"queue"`
	// Jobs reports the async job layer.
	Jobs JobMetrics `json:"jobs"`
	// Engine reports the counters of the fairrank.Ranker that serves
	// every request.
	Engine EngineMetrics `json:"engine"`
	// Panics counts handler panics absorbed by the recovery middleware.
	Panics int64 `json:"panics"`
}

// RouteMetrics is the transport counter set of one route.
type RouteMetrics struct {
	Route     string `json:"route"`
	Requests  int64  `json:"requests"`
	InFlight  int64  `json:"in_flight"`
	Errors4xx int64  `json:"errors_4xx"`
	Errors5xx int64  `json:"errors_5xx"`
	// LatencyMsSum / Requests is the mean handler latency; LatencyMsMax
	// the worst observed.
	LatencyMsSum float64 `json:"latency_ms_sum"`
	LatencyMsMax float64 `json:"latency_ms_max"`
}

// QueueMetrics reports the admission queue: static shape (workers,
// depth, wait budget) and live gauges.
type QueueMetrics struct {
	Workers     int     `json:"workers"`
	Depth       int     `json:"depth"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	// Admitted counts requests currently in the system (executing or
	// queued); InFlight execution slots held; Queued goroutines blocked
	// waiting for their first slot; Rejected cumulative saturation
	// rejections (fast 429s).
	Admitted int64 `json:"admitted"`
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`
}

// JobMetrics reports the async job layer.
type JobMetrics struct {
	MaxJobs int `json:"max_jobs"`
	// Stored counts jobs currently held (any state); the per-state
	// gauges partition it.
	Stored    int `json:"stored"`
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	// Submitted counts jobs ever accepted (as far as the store can still
	// tell after a restart); Evicted those dropped by the TTL sweep
	// since the store opened; ItemsDone individual batch entries
	// completed by this process; Recovered jobs re-enqueued from a
	// durable store at startup (ResumeJobs).
	Submitted int64 `json:"submitted"`
	Evicted   int64 `json:"evicted"`
	ItemsDone int64 `json:"items_done"`
	Recovered int64 `json:"recovered"`
	// Webhooks reports completion-event delivery, this process.
	Webhooks WebhookMetrics `json:"webhooks"`
}

// WebhookMetrics counts completion-event delivery work: Attempts is
// every POST made, Delivered the subset acknowledged with a 2xx,
// Retries the attempts beyond each event's first, and Exhausted the
// events that ran out of per-process attempts (they stay durably
// unsent, so a restart retries them — delivery is at-least-once, so
// Delivered can overcount distinct events, never undercount them).
type WebhookMetrics struct {
	Attempts  int64 `json:"attempts"`
	Delivered int64 `json:"delivered"`
	Retries   int64 `json:"retries"`
	Exhausted int64 `json:"exhausted"`
}

// EngineMetrics is the fairrank.RankerStats of the service's one
// Ranker; every counter is cumulative and never decreases. RankersCached
// is the number of Rankers, always 1 (a gateway's fleet view sums it
// over its backends). DrawsFull and DrawsTruncated split Draws by draw
// path — full-length reference draws versus the lazy top-k sampler that
// materializes only the delivered prefix — and always sum to it.
// DrawsTruncatedByNoise further splits DrawsTruncated by the noise
// mechanism that drew them ("mallows", "gmallows", "plackett-luce");
// the axes sum to DrawsTruncated and the map is omitted while no
// truncated draw has happened. PoolGets/PoolMisses count checkouts of
// the engine's pooled draw state, shared by requests of every pool size
// and θ (a draw worker per draw loop, a float vector per request that
// needs one), and the subset that had to allocate; both are exact.
type EngineMetrics struct {
	RankersCached         int              `json:"rankers_cached"`
	Requests              int64            `json:"requests"`
	Draws                 int64            `json:"draws"`
	DrawsFull             int64            `json:"draws_full"`
	DrawsTruncated        int64            `json:"draws_truncated"`
	DrawsTruncatedByNoise map[string]int64 `json:"draws_truncated_by_noise,omitempty"`
	PoolGets              int64            `json:"pool_gets"`
	PoolMisses            int64            `json:"pool_misses"`
	TableHits             int64            `json:"table_hits"`
	TableMisses           int64            `json:"table_misses"`
}

// CatalogResponse answers GET /v1/algorithms: the supported algorithms,
// noise mechanisms, central rankings, and selection criteria with their
// defaults, so clients can introspect the rankable surface instead of
// hardcoding strings. Algorithms and Noises are generated from the
// fairrank registry — algorithms registered through fairrank.Register
// appear here without any serving-layer change.
type CatalogResponse struct {
	Algorithms []AlgorithmInfo `json:"algorithms"`
	Noises     []OptionInfo    `json:"noises"`
	Centrals   []OptionInfo    `json:"centrals"`
	Criteria   []OptionInfo    `json:"criteria"`
	Defaults   DefaultsInfo    `json:"defaults"`
	// Membership describes the probabilistic-membership surface: what
	// the optional candidate "membership" field accepts and which
	// diagnostics it unlocks.
	Membership MembershipInfo `json:"membership"`
}

// MembershipInfo documents the probabilistic protected attribute: the
// candidate-level "membership" field and the expected-fairness metrics
// it adds to the response diagnostics.
type MembershipInfo struct {
	// Description summarizes the field's contract.
	Description string `json:"description"`
	// Metrics lists the diagnostics keys a membership request adds.
	Metrics []string `json:"metrics"`
}

// AlgorithmInfo is the wire form of the fairrank registry metadata of
// one post-processing algorithm.
type AlgorithmInfo struct {
	// Name is the wire value for the "algorithm" field.
	Name string `json:"name"`
	// Description summarizes the method and its source.
	Description string `json:"description"`
	// ReadsGroup reports whether the algorithm consumes the protected
	// attribute; kept alongside AttributeBlind (its negation) for
	// pre-registry clients.
	ReadsGroup bool `json:"reads_group"`
	// AttributeBlind reports that the algorithm never reads the
	// protected attribute — the paper's robustness property.
	AttributeBlind bool `json:"attribute_blind"`
	// Deterministic reports that equal inputs yield equal rankings
	// regardless of the seed (at sigma = 0 for the constraint-based
	// algorithms).
	Deterministic bool `json:"deterministic"`
	// SupportsSigma reports that the algorithm honors the "sigma"
	// constraint-noise field.
	SupportsSigma bool `json:"supports_sigma"`
	// MinGroups and MaxGroups bound the group counts the algorithm can
	// rank; zero means unbounded on that side.
	MinGroups int `json:"min_groups,omitempty"`
	MaxGroups int `json:"max_groups,omitempty"`
	// Tunables lists the request fields the algorithm responds to.
	Tunables []string `json:"tunables"`
	// MinMeanPPfair and MinMeanNDCG echo the registry's advertised
	// statistical guarantees — the floors the conformance suite holds
	// the algorithm to (see fairrank.Guarantees for the measurement
	// protocol). 0 means no promise on that axis.
	MinMeanPPfair float64 `json:"min_mean_ppfair,omitempty"`
	MinMeanNDCG   float64 `json:"min_mean_ndcg,omitempty"`
}

// OptionInfo describes one named option value (a central ranking or a
// selection criterion).
type OptionInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// DefaultsInfo lists the value each omitted request field resolves to.
type DefaultsInfo struct {
	Algorithm string  `json:"algorithm"`
	Central   string  `json:"central"`
	Criterion string  `json:"criterion"`
	Noise     string  `json:"noise"`
	Theta     float64 `json:"theta"`
	Samples   int     `json:"samples"`
	Tolerance float64 `json:"tolerance"`
	// WeakK is "min(10, n)" — it depends on the pool size.
	WeakK string  `json:"weak_k"`
	Sigma float64 `json:"sigma"`
	// TopK reports that omitting top_k returns the full ranking.
	TopK string `json:"top_k"`
}
