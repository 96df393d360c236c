package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/jobstore"
)

// ErrNotFound tags lookups of job IDs the store does not hold — never
// submitted, already deleted, or evicted after their TTL. Transports
// should map it to their not-found status.
var ErrNotFound = errors.New("not found")

// ErrConflict tags requests that name a real resource in a state the
// operation does not apply to — deleting an already-finished job.
// Transports should map it to their conflict status (HTTP 409).
var ErrConflict = errors.New("conflict")

// Job states on the wire. A job is terminal in JobStateDone or
// JobStateCancelled; only JobStateDone carries items. The wire strings
// are the jobstore states verbatim, so stored records need no
// translation layer.
const (
	JobStatePending   = string(jobstore.StatePending)
	JobStateRunning   = string(jobstore.StateRunning)
	JobStateDone      = string(jobstore.StateDone)
	JobStateCancelled = string(jobstore.StateCancelled)
)

// SubmitJob accepts a batch for asynchronous ranking and returns its
// job ID immediately; per-item workers drain through the same admission
// queue as synchronous traffic, so soak-scale batches no longer hold a
// connection open. Poll with JobStatus, list with ListJobs, fetch items
// once the state is "done", cancel with CancelJob — or set WebhookURL
// on the batch and the service POSTs a completion event instead of
// making the client poll. A full job store fails with ErrSaturated; a
// draining service rejects new jobs with ErrDraining.
//
// The batch payload is persisted with the job: on a durable store a
// restarted process replays it, re-enqueues the job, and re-runs only
// the items whose results are missing (see ResumeJobs).
func (s *Service) SubmitJob(batch *BatchRequest) (*JobSubmitResponse, error) {
	if err := s.validateBatch(batch); err != nil {
		return nil, err
	}
	if err := validateWebhookURL(batch.WebhookURL); err != nil {
		return nil, err
	}
	// The stored payload is the resume contract: everything a restart
	// needs to re-run the job bit-identically (per-item seeds included).
	payload, err := json.Marshal(batch)
	if err != nil {
		return nil, invalidf("unencodable batch: %v", err)
	}
	job := &jobstore.Job{
		Total:      len(batch.Requests),
		WebhookURL: batch.WebhookURL,
		Request:    payload,
	}
	ctx, cancel := context.WithCancel(s.jobsCtx)
	// The draining check and the jobsWG registration are one critical
	// section against BeginDrain (see drainMu): a submission in the
	// drain window is either refused or fully registered before
	// DrainJobs can start waiting. The MaxJobs check rides in the same
	// section, so concurrent submissions cannot overshoot the bound.
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	if s.store.Len() >= s.cfg.MaxJobs {
		s.drainMu.Unlock()
		cancel()
		return nil, fmt.Errorf("%w: job store is full", ErrSaturated)
	}
	if err := s.store.Create(job); err != nil {
		s.drainMu.Unlock()
		cancel()
		return nil, fmt.Errorf("persisting job: %w", err)
	}
	s.setRunning(job.ID, cancel)
	s.jobsWG.Add(1)
	s.drainMu.Unlock()
	go s.runJob(ctx, job.ID, batch.Requests, nil)
	return &JobSubmitResponse{
		ID:        job.ID,
		Total:     job.Total,
		StatusURL: "/v1/jobs/" + job.ID,
	}, nil
}

// validateWebhookURL accepts an empty URL (no subscription) or an
// absolute http/https URL.
func validateWebhookURL(raw string) error {
	if raw == "" {
		return nil
	}
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return invalidf("webhook_url %q is not an absolute http(s) URL", raw)
	}
	return nil
}

// ResumeJobs claims every unfinished job the store holds and re-enqueues
// it through the admission queue, returning how many it resumed. Call it
// once, after New and before serving traffic; on a fresh memory store it
// finds nothing to do. On a durable store, jobs interrupted by a crash
// or drained past the grace period pick up where they stopped —
// completed items are kept, only the missing draws re-run, and the
// per-item request seeds make the re-run bit-identical to the run that
// was interrupted. It also re-arms the completion-event deliveries of
// finished jobs whose webhook never got through (at-least-once).
func (s *Service) ResumeJobs() int {
	resumed := 0
	page := s.store.List(jobstore.ListQuery{})
	for _, j := range page.Jobs {
		if j.State.Terminal() {
			if j.WebhookURL != "" && !j.WebhookSent {
				s.enqueueWebhook(j.ID)
			}
			continue
		}
		claimed, ok := s.store.Claim(j.ID)
		if !ok {
			continue
		}
		var batch BatchRequest
		if err := json.Unmarshal(claimed.Request, &batch); err != nil || len(batch.Requests) != claimed.Total {
			// The payload no longer matches the record (foreign tampering
			// or a wire-format break). Refusing loudly beats re-running
			// the wrong work: the job turns cancelled, never silently lost.
			s.store.SetState(j.ID, jobstore.StateCancelled)
			continue
		}
		ctx, cancel := context.WithCancel(s.jobsCtx)
		s.drainMu.Lock()
		if s.draining.Load() {
			s.drainMu.Unlock()
			cancel()
			s.store.SetState(j.ID, jobstore.StatePending)
			break
		}
		s.setRunning(j.ID, cancel)
		s.jobsWG.Add(1)
		s.drainMu.Unlock()
		go s.runJob(ctx, j.ID, batch.Requests, claimed.Items)
		resumed++
	}
	s.recovered.Add(int64(resumed))
	return resumed
}

// runJob is the per-job supervisor: it drives the batch through
// runBatch (at most Workers items in flight, each item taking one
// execution slot with an unbounded, cancellable wait) and persists each
// item's result as it completes. prior carries the already-stored item
// results of a resumed job; those indices are skipped, which is what
// makes resume re-run only the missing draws.
//
// Exit paths: a completed job turns done (fsync'd, compacted) and fires
// its webhook; a cancelled context hands the job back to the store as
// pending — the drain path persists in-flight progress instead of
// discarding it, and a job deleted by CancelJob is already gone, so the
// hand-back is a no-op.
func (s *Service) runJob(ctx context.Context, id string, reqs []RankRequest, prior []json.RawMessage) {
	defer s.jobsWG.Done()
	defer s.clearRunning(id)
	s.store.SetState(id, jobstore.StateRunning)
	// Non-nil even when empty: a resumed job whose items all completed
	// before the crash must run nothing, not everything.
	idxs := make([]int, 0, len(reqs))
	for i := range reqs {
		if i < len(prior) && prior[i] != nil {
			continue
		}
		idxs = append(idxs, i)
	}
	s.runBatch(ctx, reqs, idxs, func(i int, item BatchItem) {
		if item.Error != "" && ctx.Err() != nil {
			// A cancelled context fails every not-yet-ranked entry with a
			// cancellation error. Persisting those would bake the artifact
			// into the record — the resume would skip the filled slot and
			// the "completed" job would carry "context canceled" items.
			// Leave the slot empty instead: the resume re-runs it, and a
			// real failure that raced the cancel reproduces automatically
			// (item errors are deterministic given the request).
			return
		}
		raw, err := json.Marshal(item)
		if err != nil {
			raw, _ = json.Marshal(BatchItem{Error: "unencodable item: " + err.Error()})
		}
		s.store.PutItem(id, i, raw, item.Error != "")
		s.itemsDone.Add(1)
	})
	if ctx.Err() != nil {
		s.store.SetState(id, jobstore.StatePending)
		return
	}
	s.store.SetState(id, jobstore.StateDone)
	s.enqueueWebhook(id)
}

// JobStatus reports a job's state and progress; once the job is done
// the response carries the per-item results, in request order.
func (s *Service) JobStatus(id string) (*JobStatusResponse, error) {
	j, ok := s.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	resp := &JobStatusResponse{
		ID:        j.ID,
		State:     string(j.State),
		Total:     j.Total,
		Completed: j.Completed,
		Failed:    j.Failed,
	}
	if j.State == jobstore.StateDone {
		resp.Items = j.Items
	}
	return resp, nil
}

// ListJobs serves one page of the job listing, oldest first, optionally
// filtered by state, resuming from an opaque cursor. Limits are clamped
// to maxListLimit; an unknown state name is an ErrInvalid.
func (s *Service) ListJobs(states []string, after string, limit int) (*JobListResponse, error) {
	q := jobstore.ListQuery{After: after, Limit: limit}
	for _, raw := range states {
		st := jobstore.State(raw)
		if !st.Valid() {
			return nil, invalidf("unknown job state %q", raw)
		}
		q.States = append(q.States, st)
	}
	if q.Limit <= 0 || q.Limit > maxListLimit {
		q.Limit = maxListLimit
	}
	page := s.store.List(q)
	resp := &JobListResponse{
		Jobs:       make([]JobSummary, len(page.Jobs)),
		NextCursor: page.NextCursor,
	}
	for i, j := range page.Jobs {
		resp.Jobs[i] = JobSummary{
			ID:          j.ID,
			State:       string(j.State),
			Total:       j.Total,
			Completed:   j.Completed,
			Failed:      j.Failed,
			Created:     j.Created,
			Finished:    j.Finished,
			StatusURL:   "/v1/jobs/" + j.ID,
			WebhookURL:  j.WebhookURL,
			WebhookSent: j.WebhookSent,
		}
	}
	return resp, nil
}

// maxListLimit caps (and defaults) the page size of ListJobs.
const maxListLimit = 100

// CancelJob cancels an unfinished job (its in-flight items abort
// between draws, its queued items never start) and removes it from the
// store, WAL files included. A job that already finished is not
// cancellable: deleting it would race the TTL sweep and erase a result
// a webhook or another poller may still be about to read, so the call
// fails with ErrConflict and eviction stays the sweeper's job.
func (s *Service) CancelJob(id string) error {
	j, ok := s.store.Get(id)
	if !ok {
		return fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if j.State.Terminal() {
		return fmt.Errorf("%w: job %q is already %s", ErrConflict, id, j.State)
	}
	// Remove first, cancel second: the supervisor's hand-back-as-pending
	// path then finds no record and the job stays deleted.
	if _, ok := s.store.Remove(id); !ok {
		return fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	s.cancelRunning(id)
	return nil
}

// setRunning registers the cancel handle of a live job supervisor.
func (s *Service) setRunning(id string, cancel context.CancelFunc) {
	s.runningMu.Lock()
	defer s.runningMu.Unlock()
	s.running[id] = cancel
}

// clearRunning drops (and fires, as cleanup) a supervisor's handle.
func (s *Service) clearRunning(id string) {
	s.runningMu.Lock()
	cancel := s.running[id]
	delete(s.running, id)
	s.runningMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// cancelRunning aborts a live supervisor, if the job has one.
func (s *Service) cancelRunning(id string) {
	s.runningMu.Lock()
	cancel := s.running[id]
	s.runningMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// sweepLoop evicts expired finished jobs on a fixed cadence for the
// life of the service. Eviction used to be lazy — piggybacked on store
// accesses — which left expired jobs inflating the /v1/metrics gauges
// on idle servers; the ticker makes TTL an upper bound on their
// lifetime regardless of traffic.
func (s *Service) sweepLoop() {
	defer s.bgWG.Done()
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.jobsCtx.Done():
			return
		case now := <-t.C:
			s.store.Sweep(now, s.cfg.JobTTL)
		}
	}
}

// enqueueWebhook starts the completion-event delivery of a finished
// job, if it registered a subscription that has not been delivered.
func (s *Service) enqueueWebhook(id string) {
	j, ok := s.store.Get(id)
	if !ok || j.WebhookURL == "" || j.WebhookSent {
		return
	}
	event, err := json.Marshal(&JobEvent{
		ID:        j.ID,
		State:     string(j.State),
		Total:     j.Total,
		Completed: j.Completed,
		Failed:    j.Failed,
		StatusURL: "/v1/jobs/" + j.ID,
	})
	if err != nil {
		return
	}
	s.bgWG.Add(1)
	go s.deliverWebhook(j.ID, j.WebhookURL, event)
}

// deliverWebhook POSTs the completion event until it lands or the
// attempt budget runs out, backing off exponentially between attempts.
// Success is durably marked on the job, so the delivery happens
// at-least-once across restarts: a crash (or shutdown) between the
// receiver's 200 and the mark re-delivers on the next start, and an
// exhausted budget leaves the event unsent for the next start to retry.
func (s *Service) deliverWebhook(id, rawURL string, event []byte) {
	defer s.bgWG.Done()
	backoff := s.cfg.WebhookBackoff
	for attempt := 1; attempt <= s.cfg.WebhookAttempts; attempt++ {
		if s.jobsCtx.Err() != nil {
			return
		}
		if attempt > 1 {
			s.webhookRetries.Add(1)
			select {
			case <-s.jobsCtx.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		s.webhookAttempts.Add(1)
		if s.postWebhook(rawURL, event) {
			s.store.MarkWebhookSent(id)
			s.webhookDelivered.Add(1)
			return
		}
	}
	s.webhookExhausted.Add(1)
}

// postWebhook performs one delivery attempt; any 2xx is a success.
func (s *Service) postWebhook(rawURL string, event []byte) bool {
	ctx, cancel := context.WithTimeout(s.jobsCtx, s.cfg.WebhookTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rawURL, bytes.NewReader(event))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.webhookClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// jobGauges snapshots the job layer for the metrics endpoint.
func (s *Service) jobGauges() JobMetrics {
	st := s.store.Stats()
	return JobMetrics{
		MaxJobs:   s.cfg.MaxJobs,
		Stored:    st.Stored,
		Pending:   st.Pending,
		Running:   st.Running,
		Done:      st.Done,
		Cancelled: st.Cancelled,
		Submitted: st.Submitted,
		Evicted:   st.Evicted,
		ItemsDone: s.itemsDone.Load(),
		Recovered: s.recovered.Load(),
		Webhooks: WebhookMetrics{
			Attempts:  s.webhookAttempts.Load(),
			Delivered: s.webhookDelivered.Load(),
			Retries:   s.webhookRetries.Load(),
			Exhausted: s.webhookExhausted.Load(),
		},
	}
}
