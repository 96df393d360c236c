package jobstore

// Durable mode: one append-only JSON-lines WAL per job (`<id>.wal`)
// plus a compacting snapshot (`<id>.snap`, a single snapshot record
// written via tmp-file + rename). Every mutation appends a record;
// state transitions fsync (item appends ride the page cache, which
// survives a process SIGKILL, and the next transition flushes them).
// When a job's WAL grows past snapshotEvery records it is folded into
// the snapshot and truncated; a terminal transition folds everything
// into the snapshot and deletes the WAL.
//
// Open replays the directory: snapshot first, then the WAL on top,
// truncating the file at the first torn or corrupt record (the classic
// corrupt-tail rule — everything before the tear is intact because
// records are appended in order). Replay is idempotent against the
// crash windows of compaction: a duplicate create is skipped, item
// records overwrite their slot without double-counting, and a stale
// state record can never regress a terminal snapshot.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const defaultSnapshotEvery = 256

// maxReplayTotal bounds the item count a replayed record may declare.
// The WAL is trusted input written by this process, but replay runs
// under a fuzzer and a corrupt length must tear the tail, not allocate
// unbounded memory.
const maxReplayTotal = 1 << 20

// walRecord is one JSON line. Op selects which fields matter: "create"
// and "snapshot" carry Job; "state" carries State/At; "item" carries
// I/Failed/Result; "webhook" carries nothing.
type walRecord struct {
	Op    string          `json:"op"`
	Job   *walJob         `json:"job,omitempty"`
	State State           `json:"state,omitempty"`
	At    time.Time       `json:"at,omitzero"`
	Index int             `json:"i,omitempty"`
	Fail  bool            `json:"failed,omitempty"`
	Res   json.RawMessage `json:"result,omitempty"`
}

const (
	opCreate   = "create"
	opState    = "state"
	opItem     = "item"
	opWebhook  = "webhook"
	opSnapshot = "snapshot"
)

// walJob is the serialized Job inside create and snapshot records.
// Incomplete item slots marshal as JSON null; toJob maps them back to
// nil (a RawMessage holding literal null is not a stored result).
type walJob struct {
	ID          string            `json:"id"`
	State       State             `json:"state"`
	Created     time.Time         `json:"created"`
	Finished    time.Time         `json:"finished,omitzero"`
	Total       int               `json:"total"`
	Failed      int               `json:"failed,omitempty"`
	WebhookURL  string            `json:"webhook_url,omitempty"`
	WebhookSent bool              `json:"webhook_sent,omitempty"`
	Request     json.RawMessage   `json:"request,omitempty"`
	Items       []json.RawMessage `json:"items,omitempty"`
}

func (w *walJob) valid() bool {
	_, okID := seqOf(w.ID)
	return okID && w.State.Valid() &&
		w.Total >= 0 && w.Total <= maxReplayTotal && len(w.Items) <= w.Total
}

// toJob rebuilds the in-memory record. Completed derives from the
// filled slots (applyItem's bookkeeping depends on that invariant);
// Failed is taken from the record, capped by what the slots allow.
func (w *walJob) toJob() *Job {
	j := &Job{
		ID: w.ID, State: w.State, Created: w.Created, Finished: w.Finished,
		Total: w.Total, WebhookURL: w.WebhookURL, WebhookSent: w.WebhookSent,
		Request: w.Request,
	}
	j.Items = make([]json.RawMessage, w.Total)
	for i, it := range w.Items {
		if len(it) > 0 && !bytes.Equal(it, []byte("null")) {
			j.Items[i] = it
			j.Completed++
		}
	}
	j.Failed = min(w.Failed, j.Completed)
	return j
}

func snapJob(j *Job) *walJob {
	return &walJob{
		ID: j.ID, State: j.State, Created: j.Created, Finished: j.Finished,
		Total: j.Total, Failed: j.Failed, WebhookURL: j.WebhookURL,
		WebhookSent: j.WebhookSent, Request: j.Request, Items: j.Items,
	}
}

// Open opens (creating if needed) a durable store rooted at dir and
// replays every job it finds there. Only real I/O errors fail the open;
// corrupt data is truncated away per the corrupt-tail rule.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: open %s: %w", dir, err)
	}
	s := New()
	s.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: open %s: %w", dir, err)
	}
	seen := make(map[string]bool)
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A compaction that died before its rename; the WAL (or the
			// previous snapshot) is still authoritative.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		id := strings.TrimSuffix(strings.TrimSuffix(name, ".wal"), ".snap")
		if id == name {
			continue
		}
		if _, ok := seqOf(id); ok && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := s.replayJob(id); err != nil {
			s.Close()
			return nil, fmt.Errorf("jobstore: replay %s: %w", id, err)
		}
	}
	return s, nil
}

func (s *Store) walPath(id string) string  { return filepath.Join(s.dir, id+".wal") }
func (s *Store) snapPath(id string) string { return filepath.Join(s.dir, id+".snap") }

func (s *Store) replayJob(id string) error {
	var job *Job
	if raw, err := os.ReadFile(s.snapPath(id)); err == nil {
		var rec walRecord
		if json.Unmarshal(bytes.TrimSpace(raw), &rec) == nil &&
			rec.Op == opSnapshot && rec.Job != nil && rec.Job.ID == id && rec.Job.valid() {
			job = rec.Job.toJob()
		} else {
			// A corrupt snapshot cannot happen through the tmp+rename
			// protocol, but replay tolerates it: drop the file and fall
			// back to whatever the WAL says.
			os.Remove(s.snapPath(id))
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	walPath := s.walPath(id)
	walRaw, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if err == nil {
		good := 0
		for off := 0; off < len(walRaw); {
			nl := bytes.IndexByte(walRaw[off:], '\n')
			if nl < 0 {
				break // torn final record: the newline never made it out
			}
			var rec walRecord
			if json.Unmarshal(walRaw[off:off+nl], &rec) != nil || !applyRecord(&job, id, &rec) {
				break
			}
			off += nl + 1
			good = off
		}
		if good < len(walRaw) {
			if err := os.Truncate(walPath, int64(good)); err != nil {
				return err
			}
		}
	}

	if job == nil {
		// Nothing intact — an empty or corrupt-from-the-start WAL with
		// no snapshot. The job was never acknowledged; forget it.
		os.Remove(walPath)
		os.Remove(s.snapPath(id))
		return nil
	}
	if n, ok := seqOf(job.ID); ok && n > s.seq {
		s.seq = n
	}
	r := &record{job: *job}
	if job.State.Terminal() {
		// Normalize an interrupted compaction: fold the replayed state
		// into the snapshot and drop the WAL.
		if err := s.writeSnapshot(r); err != nil {
			return err
		}
		if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	} else {
		f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		r.wal = f
	}
	s.jobs[job.ID] = r
	return nil
}

// applyRecord folds one replayed WAL record into job. It returns false
// when the record is corrupt — replay stops there and truncates the
// tail. Records made redundant by a compaction crash window (duplicate
// create, pre-snapshot items or states) apply idempotently instead.
func applyRecord(job **Job, id string, rec *walRecord) bool {
	switch rec.Op {
	case opCreate:
		if rec.Job == nil || rec.Job.ID != id || !rec.Job.valid() {
			return false
		}
		if *job == nil {
			*job = rec.Job.toJob()
		}
		return true
	case opState:
		if *job == nil || !rec.State.Valid() {
			return false
		}
		applyState(*job, rec.State, rec.At)
		return true
	case opItem:
		if *job == nil {
			return false
		}
		applyItem(*job, rec.Index, rec.Res, rec.Fail)
		return true
	case opWebhook:
		if *job == nil {
			return false
		}
		(*job).WebhookSent = true
		return true
	}
	return false
}

// append marshals rec onto the job's WAL; sync forces the record to
// stable storage before returning.
func (s *Store) append(r *record, rec *walRecord, sync bool) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := r.wal.Write(append(raw, '\n')); err != nil {
		return err
	}
	r.appended++
	if sync {
		return r.wal.Sync()
	}
	return nil
}

// writeSnapshot persists the job's full state as `<id>.snap` via the
// tmp-write / fsync / rename protocol, then fsyncs the directory so
// the rename itself is durable.
func (s *Store) writeSnapshot(r *record) error {
	raw, err := json.Marshal(&walRecord{Op: opSnapshot, Job: snapJob(&r.job)})
	if err != nil {
		return err
	}
	tmp := s.snapPath(r.job.ID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapPath(r.job.ID)); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *Store) syncDir() error {
	f, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// compact folds the job into its snapshot. Terminal jobs lose their
// WAL entirely; live jobs keep the handle and start appending from a
// truncated file.
func (s *Store) compact(r *record) error {
	if err := s.writeSnapshot(r); err != nil {
		return err
	}
	r.appended = 0
	if r.job.State.Terminal() {
		if r.wal != nil {
			r.wal.Close()
			r.wal = nil
		}
		if err := os.Remove(s.walPath(r.job.ID)); err != nil && !os.IsNotExist(err) {
			return err
		}
		return s.syncDir()
	}
	return r.wal.Truncate(0)
}

// createWAL opens a new job's WAL and makes its create record and the
// file's directory entry durable. On failure it leaves no file behind.
func (s *Store) createWAL(r *record) error {
	f, err := os.OpenFile(s.walPath(r.job.ID), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	r.wal = f
	err = s.append(r, &walRecord{Op: opCreate, Job: snapJob(&r.job)}, true)
	if err == nil {
		err = s.syncDir()
	}
	if err != nil {
		f.Close()
		os.Remove(s.walPath(r.job.ID))
	}
	return err
}
