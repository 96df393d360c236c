package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a request's path through a layer. Spans
// of one request share Req; Parent is the ID of the enclosing span, 0 for
// a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while recording is on. A nil *tracer
// records nothing and wraps nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the monotonic time since the tracer's epoch, in ns.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(req, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// wrap records a span named name around every request h serves while
// recording is on. Only the benchmark's calls carry a request ID; the
// gateway's health probes do not and go unrecorded.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !t.on.Load() || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(id, name, start, t.now())
	})
}

// nest links each span to the innermost span of the same request whose
// interval encloses it. Spans recorded at the benchmark's own boundaries
// (client call, gateway handler, backend handler) nest in real time.
func nest(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int
	for _, i := range order {
		s := &spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Req == s.Req && s.Start >= top.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = 0
		if len(stack) > 0 {
			s.Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover, each child clipped
// to the parent's interval and overlaps counted once. It is never
// negative.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTotals sums duration and self time per span name.
type layerTotal struct {
	count int
	dur   int64
	self  int64
}

func totalsByName(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.count++
		t.dur += s.dur()
		t.self += self[i]
		out[s.Name] = t
	}
	return out
}

// vnode is one replayed layer call: a measured duration and the calls
// replayed beneath it. The replay runs each layer's public function on
// its own, so children do not run inside their parent's interval; flatten
// lays them end to end from the parent's start, which makes a layer's
// self time its duration minus what the layers beneath it took.
type vnode struct {
	name string
	dur  int64
	kids []*vnode
}

func (v *vnode) add(kid *vnode) { v.kids = append(v.kids, kid) }

// flatten appends v's tree as spans with virtual timestamps starting at
// start; IDs continue from len(*out).
func (v *vnode) flatten(out *[]span, req string, parent int, start int64) {
	id := len(*out) + 1
	*out = append(*out, span{ID: id, Parent: parent, Req: req, Name: v.name, Start: start, End: start + v.dur})
	at := start
	for _, k := range v.kids {
		k.flatten(out, req, id, at)
		at += k.dur
	}
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
