package service

// Durable-job tests: crash-recovery equivalence (a restart completes an
// interrupted job bit-identically), drain-suspend (Close hands partial
// progress back to the store instead of discarding it), and the
// listing endpoint the durable store feeds.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// resumeBatch is a job whose entries are individually seeded — the
// contract that makes a resumed re-run bit-identical.
func resumeBatch(n int) *BatchRequest {
	b := &BatchRequest{}
	for i := 0; i < n; i++ {
		b.Requests = append(b.Requests, RankRequest{
			Candidates: pool(12),
			Algorithm:  "mallows-best",
			Theta:      ptr(0.7),
			Samples:    ptr(200),
			Seed:       int64(1000 + i),
		})
	}
	return b
}

// referenceItems runs the batch to completion on a throwaway in-memory
// service and returns the item results every recovery path must
// reproduce byte-for-byte.
func referenceItems(t *testing.T, batch *BatchRequest) []json.RawMessage {
	t.Helper()
	s := New(Config{Workers: 2})
	defer s.Close()
	sub, err := s.SubmitJob(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, sub.ID)
	raws := make([]json.RawMessage, len(st.Items))
	for i := range st.Items {
		raw, err := json.Marshal(st.Items[i])
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

func assertItemsIdentical(t *testing.T, st *JobStatusResponse, want []json.RawMessage) {
	t.Helper()
	if st.State != JobStateDone || len(st.Items) != len(want) {
		t.Fatalf("recovered job: state=%q items=%d, want done with %d", st.State, len(st.Items), len(want))
	}
	for i := range want {
		got, err := json.Marshal(st.Items[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("item %d diverged after recovery:\nwant %s\ngot  %s", i, want[i], got)
		}
	}
}

// TestJobCrashRecoveryBitIdentical is the crash drill: a job is
// interrupted with part of its items persisted (exactly the record a
// SIGKILL'd process leaves in its WAL — no suspend, no cleanup, claims
// gone with the process), a new server opens the same directory, and
// the resumed job must (a) re-run only the missing items and (b) finish
// with results byte-identical to an uninterrupted run.
func TestJobCrashRecoveryBitIdentical(t *testing.T) {
	const total = 6
	batch := resumeBatch(total)
	want := referenceItems(t, batch)
	payload, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	// The post-crash WAL: created, running, items 0/2/4 persisted.
	dir := t.TempDir()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := &jobstore.Job{Total: total, Request: payload}
	if err := store.Create(job); err != nil {
		t.Fatal(err)
	}
	store.SetState(job.ID, jobstore.StateRunning)
	prefilled := []int{0, 2, 4}
	for _, i := range prefilled {
		store.PutItem(job.ID, i, want[i], false)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(ServerConfig{Config: Config{Workers: 2}, Addr: "127.0.0.1:0", JobDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1", srv.Recovered())
	}
	svc := srv.Service()
	st := waitDone(t, svc, job.ID)
	assertItemsIdentical(t, st, want)
	if st.Failed != 0 {
		t.Fatalf("recovered job reports %d failed items", st.Failed)
	}

	// Only the missing draws ran: the prefilled slots were skipped.
	g := svc.jobGauges()
	if g.ItemsDone != int64(total-len(prefilled)) {
		t.Fatalf("resume ran %d items, want only the %d missing", g.ItemsDone, total-len(prefilled))
	}
	if g.Recovered != 1 {
		t.Fatalf("recovered gauge %d, want 1", g.Recovered)
	}
}

// TestJobDrainSuspendAndResume is the graceful half of the drill: Close
// (the SIGTERM path) suspends a running job back to pending with its
// completed items persisted and no cancellation artifacts stored; a new
// service over the same directory resumes it to a bit-identical finish.
func TestJobDrainSuspendAndResume(t *testing.T) {
	const total = 10
	batch := resumeBatch(total)
	want := referenceItems(t, batch)

	dir := t.TempDir()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, JobStore: store})
	sub, err := s1.SubmitJob(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Let some progress land, then shut down mid-job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s1.JobStatus(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	// The suspended record: pending, unclaimed, partial progress, and
	// not a single stored cancellation artifact.
	store2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := store2.Get(sub.ID)
	if !ok {
		t.Fatal("suspended job lost")
	}
	if j.State != jobstore.StatePending {
		t.Fatalf("suspended job in state %q, want pending", j.State)
	}
	if j.Completed < 1 {
		t.Fatal("suspend discarded the completed items")
	}
	for i, raw := range j.Items {
		if raw != nil && !bytes.Equal(raw, want[i]) {
			t.Fatalf("suspended item %d holds a non-reference result: %s", i, raw)
		}
	}

	s2 := New(Config{Workers: 2, JobStore: store2})
	defer s2.Close()
	if n := s2.ResumeJobs(); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	assertItemsIdentical(t, waitDone(t, s2, sub.ID), want)
}

// TestJobResumeRejectsTamperedPayload: a stored payload that no longer
// matches its record is refused loudly — the job turns cancelled
// instead of re-running the wrong work or vanishing.
func TestJobResumeRejectsTamperedPayload(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := &jobstore.Job{Total: 3, Request: json.RawMessage(`{"requests":[]}`)}
	if err := store.Create(job); err != nil {
		t.Fatal(err)
	}
	// Claims die with the creating process; only a reopened store hands
	// the job to the resume path.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, JobStore: store})
	defer s.Close()
	if n := s.ResumeJobs(); n != 0 {
		t.Fatalf("resumed %d tampered jobs, want 0", n)
	}
	st, err := s.JobStatus(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobStateCancelled {
		t.Fatalf("tampered job in state %q, want cancelled", st.State)
	}
}

// TestHTTPJobList pins the listing endpoint: cursor paging, state
// filters, and the 400s for malformed queries.
func TestHTTPJobList(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		sub, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{{Candidates: pool(6), Seed: int64(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		waitDone(t, s, id)
	}

	getPage := func(query string, wantStatus int) *JobListResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET /v1/jobs%s: status %d, want %d", query, resp.StatusCode, wantStatus)
		}
		if wantStatus != http.StatusOK {
			return nil
		}
		var page JobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return &page
	}

	page := getPage("?limit=2", http.StatusOK)
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[0] || page.Jobs[1].ID != ids[1] {
		t.Fatalf("first page: %+v", page.Jobs)
	}
	if page.NextCursor != ids[1] {
		t.Fatalf("first cursor %q", page.NextCursor)
	}
	if page.Jobs[0].StatusURL != "/v1/jobs/"+ids[0] {
		t.Fatalf("status URL %q", page.Jobs[0].StatusURL)
	}

	page = getPage("?limit=10&after="+page.NextCursor, http.StatusOK)
	if len(page.Jobs) != 3 || page.Jobs[0].ID != ids[2] || page.NextCursor != "" {
		t.Fatalf("second page: %+v", page)
	}

	if page := getPage("?state=done", http.StatusOK); len(page.Jobs) != 5 {
		t.Fatalf("done filter returned %d jobs", len(page.Jobs))
	}
	if page := getPage("?state=pending&state=running", http.StatusOK); len(page.Jobs) != 0 {
		t.Fatalf("pending/running filter returned %d jobs", len(page.Jobs))
	}
	getPage("?state=finished", http.StatusBadRequest)
	getPage("?limit=zero", http.StatusBadRequest)
	getPage("?limit=-1", http.StatusBadRequest)
}

// TestSubmitRejectsBadWebhookURL: subscriptions must be absolute
// http(s) URLs; anything else is a 400 at submit time, not a delivery
// failure later.
func TestSubmitRejectsBadWebhookURL(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	for _, bad := range []string{"not-a-url", "ftp://x/hook", "/relative/hook"} {
		body, _ := json.Marshal(&BatchRequest{
			Requests:   []RankRequest{{Candidates: pool(4), Seed: 1}},
			WebhookURL: bad,
		})
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs/rank", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("webhook_url %q accepted with status %d", bad, rec.Code)
		}
	}
}
