package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was produced. Server-side deadline expiry is
// distinct and maps to 504.
const statusClientClosedRequest = 499

// maxBodyBytes bounds request bodies accepted by the HTTP handler.
const maxBodyBytes = 32 << 20

// NewHandler exposes the service over HTTP:
//
//	POST   /v1/rank        RankRequest  → RankResponse (sync)
//	POST   /v1/rank/batch  BatchRequest → BatchResponse (sync)
//	POST   /v1/jobs/rank   BatchRequest → JobSubmitResponse (async, 202;
//	                       webhook_url subscribes to the completion event)
//	GET    /v1/jobs        JobListResponse (cursor paging via ?after=,
//	                       ?limit=, state filters via repeated ?state=)
//	GET    /v1/jobs/{id}   JobStatusResponse (progress; items once done)
//	DELETE /v1/jobs/{id}   cancel+delete an unfinished job (204); a
//	                       finished job is 409 (eviction is the TTL's job)
//	GET    /v1/algorithms  CatalogResponse (introspection)
//	GET    /v1/metrics     MetricsResponse (transport/queue/jobs/engine)
//	GET    /healthz        liveness probe (process is up)
//	GET    /readyz         readiness probe (503 once draining)
//
// Every route runs behind the transport middleware stack: request-ID
// injection (X-Request-Id, inbound IDs preserved), optional structured
// access logging (Config.AccessLog), panic recovery (500 instead of a
// torn connection), and per-route latency/inflight/error counters
// served by GET /v1/metrics.
//
// Error mapping: request-caused failures (ErrInvalid, malformed JSON)
// return 400 with a JSON {"error": "..."} body; a body over 32 MiB 413
// (the whole body is read before decoding, so this holds even when its
// first JSON value ends sooner); unknown job IDs 404;
// deleting a finished job 409; a saturated admission queue or job
// store 429 with Retry-After; a
// draining service 503 (new jobs) with Retry-After; a client
// cancellation 499; a deadline expiry 504; anything else 500, as is a
// response body that cannot be encoded (see writeJSON). Each
// request's context flows into the sampling loops, so client
// disconnects abort in-flight ranking work.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, chain(h, routeMetrics(s.stats.route(pattern))))
	}
	route("POST /v1/rank", func(w http.ResponseWriter, r *http.Request) {
		var req RankRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.Rank(r.Context(), &req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("POST /v1/rank/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.RankBatch(r.Context(), &req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("POST /v1/jobs/rank", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.SubmitJob(&req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, resp)
	})
	route("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 0
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 1 {
				s.writeError(w, invalidf("limit %q is not a positive integer", raw))
				return
			}
			limit = n
		}
		resp, err := s.ListJobs(q["state"], q.Get("after"), limit)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		resp, err := s.JobStatus(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CancelJob(r.PathValue("id")); err != nil {
			s.writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	route("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Catalog())
	})
	route("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		resp, ready := s.Readyz()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	})
	return chain(mux,
		requestID(),
		accessLog(s.cfg.AccessLog),
		recovery(s.stats, s.cfg.AccessLog),
	)
}

// maxPooledBody caps both the buffer a declared Content-Length reserves
// before the body arrives and the buffers bodyBuffers and encoders keep:
// a larger body grows its buffer as its bytes arrive, and the buffer is
// dropped after decoding or writing, so one outsized request or
// response pins no memory in the pool.
const maxPooledBody = 4 << 20

// bodyBuffers holds the buffers request bodies are read into. decodeBody
// copies every string out, so a buffer goes back right after decoding.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode reads the whole body, capped at maxBodyBytes, and decodes it
// into dst with decodeBody. A body over the cap is answered with 413,
// any other read or decode failure with 400.
func decode[T RankRequest | BatchRequest](w http.ResponseWriter, r *http.Request, dst *T) bool {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = decodeBody(buf.Bytes(), dst)
	}
	if buf.Cap() <= maxPooledBody {
		bodyBuffers.Put(buf)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "reading request body: " + err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed JSON: " + err.Error()})
	}
	return false
}

// writeError maps service errors onto wire statuses; see NewHandler.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrSaturated):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(s.queue.RetryAfter().Seconds())))
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(s.queue.RetryAfter().Seconds())))
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The budget for producing a response ran out server-side:
		// a gateway timeout, not a client disconnect.
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// encoders holds the encoders response bodies are written with.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// writeJSON answers with status and v's JSON encoding, the bytes
// json.NewEncoder(w).Encode(v) would write. The body is encoded in full
// before the status line, so a value that cannot be encoded is answered
// 500 with the stable error shape, not with the status over an empty
// body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encoders.Get().(*encoder)
	if err := e.encode(v); err != nil {
		status = http.StatusInternalServerError
		_ = e.encode(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; only the server can log it.
	_, _ = w.Write(e.buf)
	if cap(e.buf) <= maxPooledBody {
		encoders.Put(e)
	}
}
