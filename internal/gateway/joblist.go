package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jobstore"
	"repro/internal/service"
)

// JobListResponse is the gateway's answer to GET /v1/jobs: the merged
// fleet-wide listing, with the backend prefix baked into every job ID
// (the same "b2-job-000017" form the submit path issues, so a listed
// job's StatusURL routes straight back through forwardJob).
type JobListResponse struct {
	Jobs []service.JobSummary `json:"jobs"`
	// NextCursor resumes the merged listing; it is a composite of
	// per-backend cursors ("b0=job-000003,b2=job-000001") but opaque to
	// clients — pass it back as ?after=.
	NextCursor string `json:"next_cursor,omitempty"`
	// Partial reports that at least one backend could not be listed;
	// Unreachable names them. The reachable majority still answers —
	// a listing that degrades beats one that disappears with its
	// weakest backend.
	Partial     bool     `json:"partial,omitempty"`
	Unreachable []string `json:"unreachable,omitempty"`
}

// maxListLimit mirrors the backends' page-size cap.
const maxListLimit = 100

// forwardJobList fans GET /v1/jobs out to every serving backend,
// rewrites each job's ID with its backend prefix, merges the pages by
// creation time, and cuts the merged page to the requested limit. The
// composite cursor records, per backend, the last job the merged page
// consumed, so the next page resumes every backend exactly where this
// one stopped.
func (g *Gateway) forwardJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := maxListLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("limit %q is not a positive integer", raw),
			})
			return
		}
		if n < limit {
			limit = n
		}
	}
	for _, st := range q["state"] {
		if !jobstore.State(st).Valid() {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("unknown job state %q", st),
			})
			return
		}
	}
	cursors := parseListCursor(q.Get("after"))

	pool := g.routable(nil)
	if len(pool) == 0 {
		g.metrics.unroutable.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(g.cfg.ProbeInterval.Seconds())+1))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no serving backend"})
		return
	}

	type page struct {
		b    *Backend
		resp *service.JobListResponse
		err  error
	}
	pages := make([]page, len(pool))
	var wg sync.WaitGroup
	for i, b := range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bq := url.Values{}
			for _, st := range q["state"] {
				bq.Add("state", st)
			}
			if after := cursors[b.name]; after != "" {
				bq.Set("after", after)
			}
			bq.Set("limit", strconv.Itoa(limit))
			res := g.attempt(r.Context(), b, http.MethodGet, "/v1/jobs?"+bq.Encode(), r.Header, nil)
			if res.err != nil {
				b.errors.Add(1)
				b.noteFailure(g.cfg.UnhealthyThreshold)
				pages[i] = page{b: b, err: res.err}
				return
			}
			if res.status != http.StatusOK {
				pages[i] = page{b: b, err: fmt.Errorf("status %d", res.status)}
				return
			}
			var lr service.JobListResponse
			if err := json.Unmarshal(res.body, &lr); err != nil {
				pages[i] = page{b: b, err: err}
				return
			}
			pages[i] = page{b: b, resp: &lr}
		}()
	}
	wg.Wait()

	// Merge the reachable pages oldest-first. Backend sequences are
	// independent, so creation time is the only fleet-wide order there
	// is; the prefixed ID breaks ties deterministically.
	type entry struct {
		backend string
		job     service.JobSummary // ID already prefixed
		more    bool               // this backend has jobs past this one
	}
	var merged []entry
	out := &JobListResponse{Jobs: []service.JobSummary{}}
	backendMore := make(map[string]bool)
	for _, p := range pages {
		if p.err != nil {
			out.Partial = true
			out.Unreachable = append(out.Unreachable, p.b.name)
			continue
		}
		backendMore[p.b.name] = p.resp.NextCursor != ""
		for _, j := range p.resp.Jobs {
			j.ID = p.b.name + "-" + j.ID
			j.StatusURL = "/v1/jobs/" + j.ID
			merged = append(merged, entry{backend: p.b.name, job: j})
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if !merged[a].job.Created.Equal(merged[b].job.Created) {
			return merged[a].job.Created.Before(merged[b].job.Created)
		}
		return merged[a].job.ID < merged[b].job.ID
	})

	// Cut the merged page and advance each backend's cursor to the last
	// job of it the page consumed; untouched backends keep the cursor
	// the client sent.
	next := make(map[string]string, len(cursors))
	for name, c := range cursors {
		next[name] = c
	}
	more := false
	for i, e := range merged {
		if i >= limit {
			more = true
			break
		}
		out.Jobs = append(out.Jobs, e.job)
		// The unprefixed ID is the backend's own cursor space.
		next[e.backend] = strings.TrimPrefix(e.job.ID, e.backend+"-")
	}
	for _, m := range backendMore {
		more = more || m
	}
	if more {
		out.NextCursor = formatListCursor(next)
	}
	writeJSON(w, http.StatusOK, out)
}

// parseListCursor splits a composite cursor ("b0=job-000003,b2=...")
// into per-backend cursors. Unparseable pieces are dropped — cursors
// are opaque hints, and a stale or foreign one just restarts that
// backend's listing from the top.
func parseListCursor(raw string) map[string]string {
	out := make(map[string]string)
	if raw == "" {
		return out
	}
	for _, part := range strings.Split(raw, ",") {
		name, after, ok := strings.Cut(part, "=")
		if ok && name != "" && after != "" {
			out[name] = after
		}
	}
	return out
}

// formatListCursor renders per-backend cursors in stable (sorted) order.
func formatListCursor(cursors map[string]string) string {
	names := make([]string, 0, len(cursors))
	for name, c := range cursors {
		if c != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + "=" + cursors[name]
	}
	return strings.Join(parts, ",")
}
