// Package jobstore is the durable persistence layer under the serving
// pipeline's async jobs: one Store of job records —
// create/get/list-with-paging/update-state/claim/remove — whose
// durability is chosen by its constructor. New keeps everything in
// process memory; Open(dir) also survives restarts by appending every
// mutation to a per-job JSON-lines write-ahead log, fsync'd on state
// transitions, compacted into a single-record snapshot as the log grows
// and when the job reaches a terminal state. The bookkeeping is the
// same code in both modes; only a durable store touches the file
// system.
//
// The store holds *records*, not goroutines: the serving layer
// (internal/service) owns supervisors, contexts, and the admission
// queue, and treats the payloads it stores here — the batch request and
// the per-item results — as opaque JSON. That split is what makes
// resume-on-restart work: a restarted process replays the WAL, Claims
// every unfinished record, and re-runs exactly the items whose results
// are missing; the per-item requests carry their own seeds, so the
// re-run is bit-identical to the run the crash interrupted.
//
// Concurrency: a Store is safe for concurrent use, and every Job
// leaving the store is a snapshot copy — callers can read it without
// holding any store lock, and mutating it affects nothing.
package jobstore

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// State is a job's lifecycle state. Pending and Running are "unfinished"
// (a restart resumes them); Done and Cancelled are terminal.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool { return s == StateDone || s == StateCancelled }

// Valid reports whether s is one of the four lifecycle states — the
// names a job listing may filter by.
func (s State) Valid() bool {
	switch s {
	case StatePending, StateRunning, StateDone, StateCancelled:
		return true
	}
	return false
}

// Job is one stored job record. The store assigns ID on Create and owns
// every field afterwards; the Request payload and the per-item Results
// are opaque JSON to the store (the serving layer defines their shape).
type Job struct {
	// ID is store-assigned, sequential ("job-000017"), and never reused
	// while the jobs that defined the sequence remain on disk.
	ID string
	// State is the lifecycle state; transitions persist through SetState.
	State State
	// Created and Finished bracket the job's life; Finished is zero
	// until the job reaches a terminal state.
	Created  time.Time
	Finished time.Time
	// Total is the number of items the job ranks; Completed counts items
	// with a stored result, Failed the subset whose result is an error.
	Total     int
	Completed int
	Failed    int
	// WebhookURL, when nonempty, is the completion-event subscription
	// registered at submit time; WebhookSent records a successful
	// delivery, so a restart redelivers unsent events (at-least-once).
	WebhookURL  string
	WebhookSent bool
	// Request is the submitted batch payload, opaque to the store.
	Request json.RawMessage
	// Items holds one result slot per item, index-aligned with the batch
	// entries; nil slots are not yet completed. Result bytes are treated
	// as immutable by everyone.
	Items []json.RawMessage
}

// clone returns a snapshot copy safe to hand out of the store: the
// Items slice is copied (the RawMessage contents are shared but
// immutable by convention).
func (j *Job) clone() *Job {
	c := *j
	if j.Items != nil {
		c.Items = make([]json.RawMessage, len(j.Items))
		copy(c.Items, j.Items)
	}
	return &c
}

// seqOf parses the numeric suffix of a store-assigned ID; ok is false
// for foreign IDs. Numeric ordering is the store's listing order — the
// zero-padded string form sorts identically only below 10^6, so cursors
// compare by sequence number, never by string.
func seqOf(id string) (uint64, bool) {
	rest, found := strings.CutPrefix(id, "job-")
	if !found || rest == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// formatID renders sequence number n as a store ID.
func formatID(n uint64) string {
	id := strconv.FormatUint(n, 10)
	for len(id) < 6 {
		id = "0" + id
	}
	return "job-" + id
}

// ListQuery selects a page of jobs, in creation (sequence) order.
type ListQuery struct {
	// States filters to the given states; empty means all.
	States []State
	// After is the exclusive cursor: only jobs created after the job
	// with this ID are returned. Empty starts from the beginning. An
	// unparseable cursor lists from the beginning (cursors are opaque
	// hints, not capabilities).
	After string
	// Limit bounds the page size; <= 0 means no bound.
	Limit int
}

func (q ListQuery) matches(s State) bool {
	if len(q.States) == 0 {
		return true
	}
	for _, want := range q.States {
		if s == want {
			return true
		}
	}
	return false
}

// ListPage is one page of List results.
type ListPage struct {
	// Jobs holds the page, in creation order (snapshot copies).
	Jobs []*Job
	// NextCursor is the After value of the next page; empty when the
	// listing is exhausted.
	NextCursor string
}

// Stats is the store-level gauge snapshot for the metrics endpoint.
type Stats struct {
	// Stored counts jobs currently held; the per-state gauges
	// partition it.
	Stored    int
	Pending   int
	Running   int
	Done      int
	Cancelled int
	// Submitted is the highest sequence number ever assigned (jobs ever
	// accepted, as far as the store can still tell after replay);
	// Evicted counts jobs dropped by Sweep since the store opened.
	Submitted int64
	Evicted   int64
}

// Store holds job records. It is safe for concurrent use; all returned
// jobs are snapshot copies. A Store from New lives in memory and makes
// no file-system call; one from Open also persists every mutation under
// its directory (see wal.go).
type Store struct {
	// dir is the WAL directory; empty for a memory store.
	dir string
	// snapshotEvery is the WAL-records-per-job threshold that triggers
	// mid-life compaction. In-package tests shrink it to force
	// compaction windows; everyone else gets the default.
	snapshotEvery int

	mu      sync.Mutex
	jobs    map[string]*record
	seq     uint64
	evicted int64
}

type record struct {
	job     Job
	claimed bool
	// wal is the open append handle; nil in a memory store and once the
	// job is terminal and fully compacted into its snapshot.
	wal      *os.File
	appended int
}

// New returns an empty in-memory store: records die with the process.
// It is the default for tests, embedded uses, and servers run without
// -job-dir.
func New() *Store {
	return &Store{snapshotEvery: defaultSnapshotEvery, jobs: make(map[string]*record)}
}

// Create assigns the next sequential ID, persists the record, and fills
// job.ID. A durable store fsyncs before returning: a job the caller
// acknowledged is a job a restart will find. The created job counts as
// claimed — the creating process runs it.
func (s *Store) Create(job *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	job.ID = formatID(s.seq)
	if job.State == "" {
		job.State = StatePending
	}
	if job.Created.IsZero() {
		job.Created = time.Now()
	}
	r := &record{job: *job.clone(), claimed: true}
	if r.job.Items == nil {
		r.job.Items = make([]json.RawMessage, r.job.Total)
	}
	if s.dir != "" {
		if err := s.createWAL(r); err != nil {
			s.seq--
			return err
		}
	}
	s.jobs[job.ID] = r
	return nil
}

// Get returns a snapshot of the job, or ok=false if the store does not
// hold it.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return r.job.clone(), true
}

// List returns one page of jobs in creation order; see ListQuery. It
// collects the matching jobs past the cursor, orders them by sequence
// number, cuts the page, and reports whether anything remains.
func (s *Store) List(q ListQuery) ListPage {
	var after uint64
	if q.After != "" {
		after, _ = seqOf(q.After) // unparseable cursors list from the start
	}
	type entry struct {
		seq uint64
		job *Job
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	matched := make([]entry, 0, len(s.jobs))
	for id, r := range s.jobs {
		if n, ok := seqOf(id); ok && n > after && q.matches(r.job.State) {
			matched = append(matched, entry{n, &r.job})
		}
	}
	sort.Slice(matched, func(a, b int) bool { return matched[a].seq < matched[b].seq })
	page := ListPage{}
	for i, e := range matched {
		if q.Limit > 0 && i >= q.Limit {
			page.NextCursor = page.Jobs[len(page.Jobs)-1].ID
			break
		}
		page.Jobs = append(page.Jobs, e.job.clone())
	}
	return page
}

// SetState persists a state transition (fsync'd in a durable store).
// Transitioning into a terminal state stamps Finished and compacts the
// job's log into a snapshot; transitioning a running job back to
// StatePending releases its claim — the drain path's "hand the job back
// to the store" move. Unknown IDs are a no-op (the job raced a Remove),
// not an error.
func (s *Store) SetState(id string, state State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil
	}
	if state == StatePending {
		r.claimed = false
	}
	before := r.job.State
	now := time.Now()
	applyState(&r.job, state, now)
	if r.job.State == before || r.wal == nil {
		return nil
	}
	if err := s.append(r, &walRecord{Op: opState, State: r.job.State, At: now}, false); err != nil {
		return err
	}
	if r.job.State.Terminal() || r.appended >= s.snapshotEvery {
		// The compaction snapshot is fsync'd, which flushes the append
		// along the way.
		return s.compact(r)
	}
	return r.wal.Sync()
}

// PutItem persists item idx's result. Appends are not individually
// fsync'd — a process crash cannot lose buffered appends (the page cache
// survives SIGKILL), and the next state transition flushes them.
// Unknown IDs and out-of-range indices are a no-op.
func (s *Store) PutItem(id string, idx int, result json.RawMessage, failed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok || idx < 0 || idx >= r.job.Total {
		return nil
	}
	applyItem(&r.job, idx, result, failed)
	if r.wal == nil {
		return nil
	}
	if err := s.append(r, &walRecord{Op: opItem, Index: idx, Res: result, Fail: failed}, false); err != nil {
		return err
	}
	if r.appended >= s.snapshotEvery {
		return s.compact(r)
	}
	return nil
}

// MarkWebhookSent durably records a successful completion-event
// delivery, so restarts stop redelivering. Unknown IDs are a no-op.
func (s *Store) MarkWebhookSent(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil
	}
	r.job.WebhookSent = true
	if r.wal != nil {
		return s.append(r, &walRecord{Op: opWebhook}, true)
	}
	if s.dir == "" {
		return nil
	}
	// Terminal and compacted: the snapshot is the only persistent form
	// left, so rewrite it.
	return s.writeSnapshot(r)
}

// Claim marks an unfinished, unclaimed job as running under the caller
// and returns its snapshot — the resume path's handshake. It returns
// ok=false for unknown, terminal, or already-claimed jobs. Claims are
// process-local (they are about which goroutine supervises the job, not
// about durability) — nothing is appended. After a crash the job
// replays in its last persisted state, unclaimed, and the resume path
// claims it again.
func (s *Store) Claim(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok || r.claimed || r.job.State.Terminal() {
		return nil, false
	}
	r.claimed = true
	r.job.State = StateRunning
	return r.job.clone(), true
}

// Remove deletes the job and returns its last snapshot.
func (s *Store) Remove(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	s.drop(id, r)
	return r.job.clone(), true
}

// Sweep drops terminal jobs whose Finished time is at least ttl ago and
// returns how many it evicted.
func (s *Store) Sweep(now time.Time, ttl time.Duration) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, r := range s.jobs {
		if r.job.State.Terminal() && now.Sub(r.job.Finished) >= ttl {
			s.drop(id, r)
			n++
		}
	}
	s.evicted += int64(n)
	return n
}

// drop deletes a record and, in a durable store, its files.
func (s *Store) drop(id string, r *record) {
	delete(s.jobs, id)
	if s.dir == "" {
		return
	}
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	os.Remove(s.walPath(id))
	os.Remove(s.snapPath(id))
	s.syncDir()
}

// Len counts stored jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Stats snapshots the store's gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Stored: len(s.jobs), Submitted: int64(s.seq), Evicted: s.evicted}
	for _, r := range s.jobs {
		switch r.job.State {
		case StatePending:
			st.Pending++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Close releases the store's file handles. The caller guarantees no
// concurrent or subsequent use.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.jobs {
		if r.wal != nil {
			r.wal.Close()
			r.wal = nil
		}
	}
	return nil
}

// applyState applies one state transition to a record. Terminal states
// are sticky (only Remove undoes them) and the first terminal
// transition stamps Finished; replaying a duplicate transition is
// idempotent.
func applyState(j *Job, state State, at time.Time) {
	if !state.Valid() || j.State == state {
		return
	}
	if j.State.Terminal() && !state.Terminal() {
		return
	}
	j.State = state
	if state.Terminal() && j.Finished.IsZero() {
		j.Finished = at
	}
}

// applyItem stores item idx's result, growing the slot slice inside the
// job's Total bound and keeping the progress counters consistent.
// Out-of-range indices are dropped (a corrupt replay record must not
// grow unbounded memory); overwriting a filled slot is idempotent and
// never double-counts.
func applyItem(j *Job, idx int, result json.RawMessage, failed bool) {
	if idx < 0 || idx >= j.Total {
		return
	}
	if len(j.Items) < j.Total {
		grown := make([]json.RawMessage, j.Total)
		copy(grown, j.Items)
		j.Items = grown
	}
	if j.Items[idx] == nil {
		j.Completed++
		if failed {
			j.Failed++
		}
	}
	j.Items[idx] = result
}
