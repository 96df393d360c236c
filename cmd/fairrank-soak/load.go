package main

// The load client of a drill: clients goroutines replay a corpus
// against one base URL, check every response, and keep a ledger of
// what they sent and what came back that the drill's checks hold the
// server's counters to.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	fairrank "repro"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/stats"
)

// algorithm is the post-processor every load drill requests.
const algorithm = fairrank.DefaultAlgorithm

// target is one corpus spec's pool, encoded once, so the client's own
// JSON encoding stays off the measured path as far as possible.
type target struct {
	n          int
	candidates json.RawMessage
}

// wireRequest mirrors service.RankRequest with pre-encoded candidates.
type wireRequest struct {
	Candidates json.RawMessage `json:"candidates"`
	Algorithm  string          `json:"algorithm,omitempty"`
	Noise      string          `json:"noise,omitempty"`
	TopK       *int            `json:"top_k,omitempty"`
	Seed       int64           `json:"seed"`
}

type wireBatch struct {
	Requests []wireRequest `json:"requests"`
}

// sample is one measured request. drawsFull/drawsTrunc are the engine
// draws the request implies per path if it completes — the client's
// side of the draw-path ledger (a cancelled or failed request may have
// contributed anywhere from zero up to that many).
type sample struct {
	endpoint   string
	latency    time.Duration
	cancelled  bool
	failure    string // empty on success
	drawsFull  int64
	drawsTrunc int64
}

// routeCount is the client's ledger for one server route pattern: how
// many requests it sent and how many round-trips it completed (read a
// full response, whatever the status).
type routeCount struct {
	attempts  int64
	completed int64
}

type soakRun struct {
	base    string
	traffic traffic
	client  *http.Client
	targets []target
	// perItem is the engine draws one ranked item implies and
	// truncNoise the noise a sampling algorithm draws from ("" when the
	// algorithm draws nothing; every noise truncates its top-k draws),
	// both from the registry and the serving defaults, so the client can
	// predict the server's draw-path counters.
	perItem    int64
	truncNoise string
	// retryTransport makes jobCall retry transport-level failures: the
	// restart drill's dead window between SIGKILL and the restarted
	// server passing its health check.
	retryTransport bool

	mu      sync.Mutex
	samples []sample
	counts  map[string]*routeCount // by server route pattern
}

// Summary is a load drill's result, written as its "soak-summary" line.
type Summary struct {
	Action        string  `json:"Action"`
	Drill         string  `json:"Drill"`
	Corpus        string  `json:"Corpus"`
	Mode          string  `json:"Mode"`
	Target        string  `json:"Target"`
	Workers       int     `json:"Workers"`
	Requests      int     `json:"Requests"`
	Cancelled     int     `json:"Cancelled"`
	Failures      int     `json:"Failures"`
	WallSeconds   float64 `json:"WallSeconds"`
	ThroughputRPS float64 `json:"ThroughputRPS"`
	// TruncatedByNoise echoes an in-process server's per-noise truncated
	// draw counters; omitted when no draw truncated.
	TruncatedByNoise map[string]int64 `json:"TruncatedByNoise,omitempty"`
}

// EndpointReport is one endpoint's result, written as a "soak" line.
type EndpointReport struct {
	Action       string  `json:"Action"`
	Drill        string  `json:"Drill"`
	Corpus       string  `json:"Corpus"`
	Endpoint     string  `json:"Endpoint"`
	Requests     int     `json:"Requests"`
	Cancelled    int     `json:"Cancelled"`
	Failures     int     `json:"Failures"`
	LatencyMsP50 float64 `json:"LatencyMsP50"`
	LatencyMsP90 float64 `json:"LatencyMsP90"`
	LatencyMsP99 float64 `json:"LatencyMsP99"`
	LatencyMsMax float64 `json:"LatencyMsMax"`
}

func newSoakRun(base string, t traffic, specs []scenario.Spec) (*soakRun, error) {
	r := &soakRun{
		base:    base,
		traffic: t,
		client:  &http.Client{Timeout: 5 * time.Minute},
		counts:  map[string]*routeCount{},
	}
	for _, spec := range specs {
		if t.maxN > 0 && spec.N > t.maxN {
			continue
		}
		pool, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(pool)
		if err != nil {
			return nil, err
		}
		r.targets = append(r.targets, target{n: spec.N, candidates: raw})
	}
	if len(r.targets) == 0 {
		return nil, fmt.Errorf("corpus %q has no usable specs", t.corpus)
	}
	// Strategy algorithms draw nothing, single-sample mechanisms draw
	// once, best-of mechanisms draw the serving default Samples per
	// item. The noise resolves as the server resolves it: a pinned
	// mechanism wins, then the request override, then the default.
	defaults := service.Catalog().Defaults
	if info, ok := fairrank.LookupAlgorithm(string(algorithm)); ok && info.Sampling {
		r.perItem = 1
		if info.BestOf {
			r.perItem = int64(defaults.Samples)
		}
		noise := string(info.Noise)
		if noise == "" {
			noise = t.noise
		}
		if noise == "" {
			noise = defaults.Noise
		}
		r.truncNoise = noise
	}
	return r, nil
}

func (r *soakRun) execute() Summary {
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for i := int(next.Add(1)) - 1; i < r.traffic.requests; i = int(next.Add(1)) - 1 {
				r.record(r.send(i, rng))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	sum := Summary{Action: "soak-summary", Corpus: r.traffic.corpus, Mode: "sync", Target: r.base, Workers: clients}
	if r.traffic.jobs {
		sum.Mode = "jobs"
	}
	for _, s := range r.samples {
		sum.Requests++
		if s.cancelled {
			sum.Cancelled++
		} else if s.failure != "" {
			sum.Failures++
			log.Printf("failure on %s: %s", s.endpoint, s.failure)
		}
	}
	sum.WallSeconds = wall.Seconds()
	sum.ThroughputRPS = float64(sum.Requests) / wall.Seconds()
	return sum
}

func (r *soakRun) record(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// progress reports how many requests have completed so far: the
// injections' trigger.
func (r *soakRun) progress() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// countAttempt/countDone maintain the per-route ledger.
func (r *soakRun) countAttempt(route string) {
	r.mu.Lock()
	c := r.counts[route]
	if c == nil {
		c = &routeCount{}
		r.counts[route] = c
	}
	c.attempts++
	r.mu.Unlock()
}

func (r *soakRun) countDone(route string) {
	r.mu.Lock()
	r.counts[route].completed++
	r.mu.Unlock()
}

func (r *soakRun) isBatch(i int) bool {
	return r.traffic.batchEvery > 0 && i%r.traffic.batchEvery == r.traffic.batchEvery-1
}

// send issues request i and stamps the sample with the draws it
// implies, split by path. Whether request i carries top_k is an
// i-based slice, not an RNG roll, so the client can bound the server's
// draw-path counters exactly; the engine truncates exactly when the
// resolved noise has a truncated sampler and the prefix is a true one
// (the server clamps k ≥ n to a full ranking).
func (r *soakRun) send(i int, rng *rand.Rand) sample {
	tgt := r.targets[i%len(r.targets)]
	k := 0
	if i%100 < 100-r.traffic.fullPct {
		k = topK
	}
	var s sample
	items := 1
	if r.traffic.jobs {
		items = batchSize
		s = r.sendJob(i, rng, tgt, k)
	} else {
		if r.isBatch(i) {
			items = batchSize
		}
		s = r.sendSync(i, rng, tgt, k)
	}
	draws := int64(items) * r.perItem
	if r.truncNoise != "" && k > 0 && k < tgt.n {
		s.drawsTrunc = draws
	} else {
		s.drawsFull = draws
	}
	return s
}

// sendSync issues request i: a batch when i hits the batch cadence, a
// single rank otherwise, optionally with an injected client-side
// cancellation.
func (r *soakRun) sendSync(i int, rng *rand.Rand, tgt target, k int) sample {
	isBatch := r.isBatch(i)
	endpoint, body := "/v1/rank", r.singleBody(tgt, i, k)
	if isBatch {
		endpoint, body = "/v1/rank/batch", r.batchBody(tgt, i, k)
	}
	ctx := context.Background()
	injected := r.traffic.cancel > 0 && rng.Float64() < r.traffic.cancel
	if injected {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Int63n(int64(cancelAfter)+1)))
		defer cancel()
	}
	status, payload, latency, err := r.roundTrip(ctx, http.MethodPost, endpoint, "POST "+endpoint, body)
	s := sample{endpoint: endpoint, latency: latency}
	switch {
	case injected && (ctx.Err() != nil || status == 499):
		s.cancelled = true
	case err != nil:
		s.failure = err.Error()
	case status != http.StatusOK:
		s.failure = fmt.Sprintf("status %d: %s", status, truncate(payload))
	default:
		s.failure = checkPayload(isBatch, payload, tgt, k)
	}
	return s
}

// roundTrip sends one request and reads the whole answer. It counts an
// attempt on route before sending and a completion once the answer is
// read, whatever its status. The latency runs to the response headers.
func (r *soakRun) roundTrip(ctx context.Context, method, path, route string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.countAttempt(route)
	start := time.Now()
	resp, err := r.client.Do(req)
	latency := time.Since(start)
	if err != nil {
		return 0, nil, latency, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, latency, err
	}
	r.countDone(route)
	return resp.StatusCode, payload, latency, nil
}

// jobCall is one round-trip of the job lifecycle (no cancellation
// injection on the control-plane calls: the jobs drill cancels through
// DELETE instead). Under retryTransport a transport-level failure is
// retried for up to ~10s, so the restart drill's dead window reads as
// latency, not as failures. Retrying the submit POST can double-submit
// a job the dying server already persisted; the orphan is resumed and
// finishes on its own, and the client tracks the job its retried
// submit returned.
func (r *soakRun) jobCall(method, path, route string, body []byte) (int, []byte, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, payload, _, err := r.roundTrip(context.Background(), method, path, route, body)
		if err == nil || !r.retryTransport {
			return status, payload, err
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("no recovery within the retry budget: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sendJob drives one async-job lifecycle: submit the batch, poll until
// done, verify every item, and check that deleting the finished job is
// refused with 409 (results belong to the TTL sweeper, not DELETE). The
// recorded latency is submit→results. A cancel roll instead cancels the
// job right after submission and checks it is gone.
func (r *soakRun) sendJob(i int, rng *rand.Rand, tgt target, k int) sample {
	const endpoint = "/v1/jobs/rank"
	start := time.Now()
	fail := func(format string, args ...any) sample {
		return sample{endpoint: endpoint, latency: time.Since(start), failure: fmt.Sprintf(format, args...)}
	}
	status, payload, err := r.jobCall(http.MethodPost, endpoint, "POST /v1/jobs/rank", r.batchBody(tgt, i, k))
	if err != nil {
		return fail("%v", err)
	}
	if status != http.StatusAccepted {
		return fail("submit status %d: %s", status, truncate(payload))
	}
	var sub service.JobSubmitResponse
	if err := json.Unmarshal(payload, &sub); err != nil {
		return fail("undecodable submit response: %v", err)
	}
	if sub.ID == "" || sub.Total != batchSize {
		return fail("submit response %s: id %q, total %d want %d", truncate(payload), sub.ID, sub.Total, batchSize)
	}
	jobPath := "/v1/jobs/" + sub.ID

	if r.traffic.cancel > 0 && rng.Float64() < r.traffic.cancel {
		if status, payload, err = r.jobCall(http.MethodDelete, jobPath, "DELETE /v1/jobs/{id}", nil); err != nil {
			return fail("%v", err)
		}
		switch status {
		case http.StatusNoContent:
			if status, payload, err = r.jobCall(http.MethodGet, jobPath, "GET /v1/jobs/{id}", nil); err != nil {
				return fail("%v", err)
			}
			if status != http.StatusNotFound {
				return fail("cancelled job still pollable: status %d: %s", status, truncate(payload))
			}
			return sample{endpoint: endpoint, latency: time.Since(start), cancelled: true}
		case http.StatusConflict:
			// The job outran the cancel and already finished; its result
			// is immutable now. Verify it like an uncancelled job.
		default:
			return fail("cancel status %d: %s", status, truncate(payload))
		}
	}

	// Poll until terminal; the job layer owes progress monotonicity but
	// no latency bound beyond the corpus item cost, so the budget is
	// generous and the cadence short.
	deadline := time.Now().Add(2 * time.Minute)
	var st service.JobStatusResponse
	for {
		if time.Now().After(deadline) {
			return fail("job %s not done after 2m (last state %q, %d/%d)", sub.ID, st.State, st.Completed, st.Total)
		}
		if status, payload, err = r.jobCall(http.MethodGet, jobPath, "GET /v1/jobs/{id}", nil); err != nil {
			return fail("%v", err)
		}
		if status != http.StatusOK {
			return fail("poll status %d: %s", status, truncate(payload))
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			return fail("undecodable status: %v", err)
		}
		if st.Completed < 0 || st.Completed > st.Total {
			return fail("progress out of range: %d/%d", st.Completed, st.Total)
		}
		if st.State == service.JobStateDone {
			break
		}
		if st.State == service.JobStateCancelled {
			return fail("job cancelled without a client cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	latency := time.Since(start)
	if msg := checkJobItems(&st, tgt, k); msg != "" {
		return sample{endpoint: endpoint, latency: latency, failure: msg}
	}
	if status, payload, err = r.jobCall(http.MethodDelete, jobPath, "DELETE /v1/jobs/{id}", nil); err != nil {
		return sample{endpoint: endpoint, latency: latency, failure: err.Error()}
	}
	if status != http.StatusConflict {
		return sample{endpoint: endpoint, latency: latency, failure: fmt.Sprintf("delete of a finished job answered %d, want 409: %s", status, truncate(payload))}
	}
	return sample{endpoint: endpoint, latency: latency}
}

// checkJobItems checks a done job's results like a batch's.
func checkJobItems(st *service.JobStatusResponse, tgt target, k int) string {
	if st.Completed != batchSize || st.Failed != 0 {
		return fmt.Sprintf("job completed %d items, %d failed; want %d, none failed", st.Completed, st.Failed, batchSize)
	}
	items := make([]service.BatchItem, len(st.Items))
	for i, raw := range st.Items {
		if err := json.Unmarshal(raw, &items[i]); err != nil {
			return fmt.Sprintf("item %d undecodable: %v", i, err)
		}
	}
	return checkItems(items, batchSize, tgt, k)
}

// reconcileDrawPaths holds the engine's draw-path counters to the
// client's ledger: per path, completed requests give the floor and
// attempted requests the ceiling (a cancelled or failed request
// contributes between zero and all of its draws, but never draws on the
// other path), and the split must sum to the total. Every truncated
// draw is on the run's one truncating noise axis, so the per-noise
// counters must put all of them there. Valid against an exclusive
// in-process server.
func (r *soakRun) reconcileDrawPaths(e *service.EngineMetrics) error {
	var okFull, attFull, okTrunc, attTrunc int64
	for _, s := range r.samples {
		attFull += s.drawsFull
		attTrunc += s.drawsTrunc
		if !s.cancelled && s.failure == "" {
			okFull += s.drawsFull
			okTrunc += s.drawsTrunc
		}
	}
	if e.DrawsFull+e.DrawsTruncated != e.Draws {
		return fmt.Errorf("draw-path split %d full + %d truncated does not sum to %d draws",
			e.DrawsFull, e.DrawsTruncated, e.Draws)
	}
	if e.DrawsFull < okFull || e.DrawsFull > attFull {
		return fmt.Errorf("server counted %d full-path draws, client ledger wants [%d, %d]",
			e.DrawsFull, okFull, attFull)
	}
	if e.DrawsTruncated < okTrunc || e.DrawsTruncated > attTrunc {
		return fmt.Errorf("server counted %d truncated draws, client ledger wants [%d, %d]",
			e.DrawsTruncated, okTrunc, attTrunc)
	}
	var axes int64
	for _, c := range e.DrawsTruncatedByNoise {
		axes += c
	}
	if c := e.DrawsTruncatedByNoise[r.truncNoise]; c != e.DrawsTruncated || axes != e.DrawsTruncated {
		return fmt.Errorf("server counted %d of %d truncated draws on %q, where the client sent all of them (per axis: %v)",
			c, e.DrawsTruncated, r.truncNoise, e.DrawsTruncatedByNoise)
	}
	return nil
}

func (r *soakRun) request(tgt target, seed int64, k int) wireRequest {
	w := wireRequest{Candidates: tgt.candidates, Algorithm: string(algorithm), Noise: r.traffic.noise, Seed: seed}
	if k > 0 {
		w.TopK = &k
	}
	return w
}

func (r *soakRun) singleBody(tgt target, i, k int) []byte {
	b, _ := json.Marshal(r.request(tgt, seed+int64(i), k))
	return b
}

func (r *soakRun) batchBody(tgt target, i, k int) []byte {
	batch := wireBatch{Requests: make([]wireRequest, batchSize)}
	for j := range batch.Requests {
		batch.Requests[j] = r.request(tgt, seed+int64(i)*1000+int64(j), k)
	}
	b, _ := json.Marshal(batch)
	return b
}

// checkPayload checks a 200 response: a drill that measures the
// latency of garbage is worse than none.
func checkPayload(isBatch bool, payload []byte, tgt target, k int) string {
	var b service.BatchResponse
	var err error
	want := batchSize
	if isBatch {
		err = json.Unmarshal(payload, &b)
	} else {
		var resp service.RankResponse
		err = json.Unmarshal(payload, &resp)
		b.Items, want = []service.BatchItem{{Response: &resp}}, 1
	}
	if err != nil {
		return "undecodable response: " + err.Error()
	}
	return checkItems(b.Items, want, tgt, k)
}

// checkItems checks that there are want items, that none failed, and
// that each ranks the length a k-capped request over tgt asks for.
func checkItems(items []service.BatchItem, want int, tgt target, k int) string {
	if len(items) != want {
		return fmt.Sprintf("%d items, want %d", len(items), want)
	}
	n := tgt.n
	if k > 0 && k < n {
		n = k
	}
	for i, item := range items {
		if item.Error != "" {
			return fmt.Sprintf("item %d error: %s", i, item.Error)
		}
		if item.Response == nil || len(item.Response.Ranking) != n {
			return fmt.Sprintf("item %d does not rank %d candidates", i, n)
		}
	}
	return ""
}

// report returns the per-endpoint lines and then the summary line.
func (r *soakRun) report(sum Summary) []any {
	byEndpoint := map[string][]sample{}
	for _, s := range r.samples {
		byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], s)
	}
	var lines []any
	for _, endpoint := range []string{"/v1/rank", "/v1/rank/batch", "/v1/jobs/rank"} {
		ss := byEndpoint[endpoint]
		if len(ss) == 0 {
			continue
		}
		rep := EndpointReport{Action: "soak", Drill: sum.Drill, Corpus: sum.Corpus, Endpoint: endpoint}
		var lat []float64
		for _, s := range ss {
			rep.Requests++
			switch {
			case s.cancelled:
				rep.Cancelled++
			case s.failure != "":
				rep.Failures++
			default:
				lat = append(lat, float64(s.latency)/float64(time.Millisecond))
			}
		}
		if len(lat) > 0 {
			rep.LatencyMsP50 = stats.Quantile(lat, 0.50)
			rep.LatencyMsP90 = stats.Quantile(lat, 0.90)
			rep.LatencyMsP99 = stats.Quantile(lat, 0.99)
			rep.LatencyMsMax = stats.Max(lat)
		}
		lines = append(lines, rep)
	}
	return append(lines, sum)
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
