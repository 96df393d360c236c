package service

// Async job layer tests: the submit → poll → fetch → delete lifecycle,
// equivalence with synchronous batch serving, cancellation, TTL
// eviction, and drain semantics.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// jobItems decodes the per-item results of a done job.
func jobItems(t *testing.T, st *JobStatusResponse) []BatchItem {
	t.Helper()
	items := make([]BatchItem, len(st.Items))
	for i, raw := range st.Items {
		if err := json.Unmarshal(raw, &items[i]); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	return items
}

// waitDone polls the job until it reaches a terminal state.
func waitDone(t *testing.T, s *Service, id string) *JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.JobStatus(id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if st.State == JobStateDone || st.State == JobStateCancelled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%d/%d)", id, st.State, st.Completed, st.Total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobLifecycle: a submitted batch runs to done with full progress
// accounting, serves its items, and deletes cleanly.
func TestJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	batch := &BatchRequest{}
	for seed := int64(0); seed < 5; seed++ {
		batch.Requests = append(batch.Requests, RankRequest{Candidates: pool(12), Samples: ptr(4), Seed: seed})
	}
	sub, err := s.SubmitJob(batch)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Total != 5 || sub.StatusURL != "/v1/jobs/"+sub.ID {
		t.Fatalf("submit response %+v", sub)
	}
	st := waitDone(t, s, sub.ID)
	if st.State != JobStateDone {
		t.Fatalf("terminal state %q, want done", st.State)
	}
	if st.Completed != 5 || st.Failed != 0 || len(st.Items) != 5 {
		t.Fatalf("progress %d/%d failed=%d items=%d", st.Completed, st.Total, st.Failed, len(st.Items))
	}
	for i, item := range jobItems(t, st) {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
		if item.Response.Diagnostics.Seed != int64(i) {
			t.Fatalf("item %d carries seed %d (reordered?)", i, item.Response.Diagnostics.Seed)
		}
	}
	// A finished job is not deletable (409 on the wire): eviction is the
	// TTL sweeper's job, and the result stays fetchable meanwhile.
	if err := s.CancelJob(sub.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("delete finished job: %v, want ErrConflict", err)
	}
	if _, err := s.JobStatus(sub.ID); err != nil {
		t.Fatalf("finished job must stay pollable after the refused delete: %v", err)
	}
}

// TestJobMatchesSyncBatch: the same batch ranks identically through the
// async job path and the sync batch path — the job layer changes where
// results wait, never what they are.
func TestJobMatchesSyncBatch(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	batch := &BatchRequest{}
	for seed := int64(0); seed < 6; seed++ {
		batch.Requests = append(batch.Requests, RankRequest{Candidates: pool(20), Samples: ptr(6), Seed: seed})
	}
	sync, err := s.RankBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.SubmitJob(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	if !reflect.DeepEqual(jobItems(t, st), sync.Items) {
		t.Fatal("async job items differ from the sync batch items for equal seeds")
	}
}

// TestJobPartialFailure: a bad entry fails alone inside a job, counted
// in Failed, without poisoning its neighbors.
func TestJobPartialFailure(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	sub, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{
		{Candidates: pool(8), Seed: 1},
		{Candidates: nil, Seed: 2}, // invalid: empty pool
		{Candidates: pool(8), Seed: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	if st.State != JobStateDone || st.Failed != 1 || st.Completed != 3 {
		t.Fatalf("state %q completed %d failed %d", st.State, st.Completed, st.Failed)
	}
	if items := jobItems(t, st); items[1].Error == "" || items[0].Error != "" || items[2].Error != "" {
		t.Fatalf("failure not isolated: %+v", items)
	}
}

// TestJobCancellation: cancelling a running job removes it, aborts its
// remaining work, and the store's gauges account for it.
func TestJobCancellation(t *testing.T) {
	// One worker and a heavy batch so the job is reliably still running
	// when the cancel lands.
	s := New(Config{Workers: 1})
	defer s.Close()
	release := fillSlots(s) // hold the only slot: items queue, none complete
	batch := &BatchRequest{}
	for seed := int64(0); seed < 4; seed++ {
		batch.Requests = append(batch.Requests, RankRequest{Candidates: pool(30), Samples: ptr(50), Seed: seed})
	}
	sub, err := s.SubmitJob(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CancelJob(sub.ID); err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := s.JobStatus(sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancelled job still pollable: %v", err)
	}
	if err := s.CancelJob(sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	// The supervisor must exit despite never having completed an item.
	done := make(chan struct{})
	go func() { s.jobsWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job's supervisor never exited")
	}
}

// TestJobTTLEviction: finished jobs are evicted TTL after completion by
// the background sweeper — with no store access required to trigger it —
// and counted in the gauges.
func TestJobTTLEviction(t *testing.T) {
	s := New(Config{Workers: 2, JobTTL: 5 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
	defer s.Close()
	sub, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{{Candidates: pool(6), Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, sub.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.JobStatus(sub.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired job still pollable: the background sweeper never evicted it")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if g := s.jobGauges(); g.Evicted != 1 || g.Stored != 0 {
		t.Errorf("gauges after eviction: %+v", g)
	}
}

// TestJobDraining: a draining service refuses new jobs but keeps
// serving status for accepted ones, and DrainJobs waits them out.
func TestJobDraining(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	sub, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{{Candidates: pool(6), Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	if _, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{{Candidates: pool(6), Seed: 2}}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining submit: %v, want ErrDraining", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.DrainJobs(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := s.JobStatus(sub.ID)
	if err != nil || st.State != JobStateDone {
		t.Fatalf("accepted job after drain: %+v, %v", st, err)
	}
}

// TestSubmitRacesDrain hammers SubmitJob against BeginDrain+DrainJobs
// from many goroutines: no WaitGroup misuse panic, and every job that
// was accepted is either awaited by DrainJobs or finished — none
// escape the drain. Run under -race (CI does).
func TestSubmitRacesDrain(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(Config{Workers: 2, MaxJobs: 256})
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					_, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{
						{Candidates: pool(6), Seed: int64(g*100 + i)},
					}})
					if errors.Is(err, ErrDraining) || errors.Is(err, ErrSaturated) {
						// Drained or (on a slow machine) a full store —
						// either way this submitter is done.
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					accepted.Add(1)
				}
			}(g)
		}
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		if err := s.DrainJobs(ctx); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		cancel()
		wg.Wait()
		// After a successful drain every accepted job is terminal.
		if g := s.jobGauges(); int64(g.Done+g.Cancelled) != accepted.Load() {
			t.Fatalf("round %d: %d accepted but gauges show %d terminal (%+v)",
				round, accepted.Load(), g.Done+g.Cancelled, g)
		}
		s.Close()
	}
}

// TestHTTPJobLifecycle drives the whole lifecycle over the wire,
// including the readiness flip while draining.
func TestHTTPJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	body := `{"requests": [
		{"candidates": [{"id":"a","score":2,"group":"x"},{"id":"b","score":1,"group":"y"}], "algorithm": "score", "seed": 1},
		{"candidates": [{"id":"c","score":2,"group":"x"},{"id":"d","score":1,"group":"y"}], "algorithm": "score", "seed": 2}
	]}`
	resp, err := http.Post(srv.URL+"/v1/jobs/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub JobSubmitResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if sub.Total != 2 || !strings.HasPrefix(sub.ID, "job-") {
		t.Fatalf("submit response %+v", sub)
	}

	var st JobStatusResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		r2, err := http.Get(srv.URL + sub.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		if r2.StatusCode != http.StatusOK {
			r2.Body.Close()
			t.Fatalf("poll status %d", r2.StatusCode)
		}
		decodeErr := json.NewDecoder(r2.Body).Decode(&st)
		r2.Body.Close()
		if decodeErr != nil {
			t.Fatal(decodeErr)
		}
		if st.State == JobStateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if items := jobItems(t, &st); len(items) != 2 || items[0].Response == nil || items[0].Response.Ranking[0].ID != "a" {
		t.Fatalf("done status %+v", st)
	}

	// Deleting the finished job is a conflict with a stable error body —
	// it never races the TTL sweep — and the result stays fetchable.
	del, err := http.NewRequest(http.MethodDelete, srv.URL+sub.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	var conflict struct {
		Error string `json:"error"`
	}
	conflictDecodeErr := json.NewDecoder(r3.Body).Decode(&conflict)
	r3.Body.Close()
	if r3.StatusCode != http.StatusConflict {
		t.Fatalf("delete finished job status %d, want 409", r3.StatusCode)
	}
	if conflictDecodeErr != nil {
		t.Fatal(conflictDecodeErr)
	}
	if want := `conflict: job "` + sub.ID + `" is already done`; conflict.Error != want {
		t.Fatalf("409 body %q, want the stable %q", conflict.Error, want)
	}
	r4, err := http.Get(srv.URL + sub.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusOK {
		t.Fatalf("finished job poll after refused delete: status %d, want 200", r4.StatusCode)
	}

	// Drain: readiness flips, liveness stays, submissions refuse.
	s.BeginDrain()
	r5, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", r5.StatusCode)
	}
	r6, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r6.Body.Close()
	if r6.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz status %d, want 200", r6.StatusCode)
	}
	r7, err := http.Post(srv.URL+"/v1/jobs/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r7.Body.Close()
	if r7.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d", r7.StatusCode)
	}
	if r7.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
}
