package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phaseResult is what one closed-loop timed phase measured.
type phaseResult struct {
	attempted, failed int
	rankings          int     // rankings returned by successful calls
	lat               []int64 // per call, send to last response byte, ns
	// latCycle[c] holds the latencies of the calls of cycle c.
	latCycle   [][]int64
	cycles     []cycleStat
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcPauseNs  uint64
	reqBytes   int64
	respBytes  int64
	// quality[i] holds the recomputed quality of call i for every call
	// of the phase's minimum length: the fixed verification set.
	quality  [][]measures
	firstErr string
	// truncated reports a phase cut by maxPhase before it reached its
	// minimum call count.
	truncated bool
}

// timed is an interval the benchmark times, a cycle or a set-up, with
// the CPU time the host stole from the machine's vCPUs meanwhile.
type timed struct {
	wall  time.Duration
	steal int64 // clock ticks, summed over all CPUs
}

// cycleStat is one cycle's share of a phase: the wall and process CPU
// (user+sys) time between the hand-out of its first call and of the next
// cycle's first call, or the end of the phase.
type cycleStat struct {
	timed
	cpu      time.Duration
	rankings int
}

// maxPhase caps a timed phase that cannot reach its minimum call count,
// so a run always ends within a bounded time.
const maxPhase = 120 * time.Second

// runPhase drives the stack with w.clients closed-loop clients for at
// least dur and at least minCalls calls, always ending on a whole number
// of cycles over calls, so every phase sends each call equally often.
// Calls are issued in sequence order, call i sending calls[i mod len].
// With tr recording, each call is traced as a "client" span.
func runPhase(s *stack, w *workload, calls []*call, dur time.Duration, minCalls int, tr *tracer, tag string) *phaseResult {
	L := len(calls)
	minimum := roundUp(max(minCalls, 1), L)
	res := &phaseResult{quality: make([][]measures, minimum)}
	var (
		mu    sync.Mutex
		next  int
		limit = -1 // unset until the deadline passes
	)
	// grab hands out the next sequence index, or -1 once the phase is
	// over. The deadline check and the hand-out happen under one lock,
	// so every index below the final limit is sent and none above it.
	type boundary struct {
		at    time.Time
		cpu   time.Duration
		steal int64
	}
	var bounds []boundary // at the hand-out of each cycle's first call
	start := time.Now()
	deadline, hardStop := start.Add(dur), start.Add(maxPhase)
	grab := func() int {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		switch {
		case now.After(hardStop) && (limit < 0 || next < limit):
			limit = next
			res.truncated = next < minimum
		case limit < 0 && now.After(deadline):
			limit = max(roundUp(next, L), minimum)
		}
		if limit >= 0 && next >= limit {
			return -1
		}
		if next%L == 0 {
			bounds = append(bounds, boundary{time.Now(), processCPU(), hostSteal()})
		}
		next++
		return next - 1
	}
	url := s.target + w.path()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	type clientResult struct {
		lat                 []int64
		idx                 []int // sequence index of each latency
		attempted, failed   int
		rankings            int
		reqBytes, respBytes int64
		firstErr            string
	}
	results := make([]clientResult, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(cr *clientResult) {
			defer wg.Done()
			var buf bytes.Buffer
			cr.lat = make([]int64, 0, 4096)
			for {
				i := grab()
				if i < 0 {
					return
				}
				cl := calls[i%L]
				id := fmt.Sprintf("%s-%d", tag, i)
				var t0 int64
				if tr != nil {
					t0 = tr.now()
				}
				began := time.Now()
				a, b := cl.parts(i / L)
				status, err := post(s.client, url, a, b, id, &buf)
				cr.lat = append(cr.lat, int64(time.Since(began)))
				cr.idx = append(cr.idx, i)
				if tr != nil {
					tr.record(id, "client", t0, tr.now())
				}
				cr.attempted++
				cr.reqBytes += int64(len(a) + len(b))
				cr.respBytes += int64(buf.Len())
				var qs []measures
				if err == nil {
					qs, err = checkResponse(cl, w.batch, status, buf.Bytes())
				}
				if err != nil {
					cr.failed++
					if cr.firstErr == "" {
						cr.firstErr = fmt.Sprintf("call %d: %v", i, err)
					}
					continue
				}
				cr.rankings += len(qs)
				if i < minimum {
					res.quality[i] = qs
				}
			}
		}(&results[c])
	}
	wg.Wait()
	bounds = append(bounds, boundary{time.Now(), processCPU(), hostSteal()})
	perCall := len(calls[0].entries)
	for c := 0; c+1 < len(bounds); c++ {
		res.cycles = append(res.cycles, cycleStat{
			timed:    timed{wall: bounds[c+1].at.Sub(bounds[c].at), steal: bounds[c+1].steal - bounds[c].steal},
			cpu:      bounds[c+1].cpu - bounds[c].cpu,
			rankings: L * perCall,
		})
	}
	res.latCycle = make([][]int64, len(res.cycles))
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.numGC = m1.NumGC - m0.NumGC
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	for _, cr := range results {
		res.lat = append(res.lat, cr.lat...)
		for j, i := range cr.idx {
			if c := i / L; c < len(res.latCycle) {
				res.latCycle[c] = append(res.latCycle[c], cr.lat[j])
			}
		}
		res.attempted += cr.attempted
		res.failed += cr.failed
		res.rankings += cr.rankings
		res.reqBytes += cr.reqBytes
		res.respBytes += cr.respBytes
		if res.firstErr == "" {
			res.firstErr = cr.firstErr
		}
	}
	return res
}

func roundUp(x, m int) int { return (x + m - 1) / m * m }

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the CPU time the hypervisor has taken from the machine's
// vCPUs so far, in clock ticks summed over all CPUs: the steal column of
// the aggregate line of /proc/stat. It is 0 where that is not available,
// which makes every interval equally quiet.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}
