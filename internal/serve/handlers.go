package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Mux returns the service's HTTP surface:
//
//	POST /v1/households/{id}/capture   streaming libpcap upload
//	POST /v1/ingest/inspector          batch upload, inspector wire format
//	GET  /v1/households/{id}/report    the household's inspector record summary
//	GET  /v1/artifacts/{name}          registry artifact over the fleet
//	GET  /v1/fleet                     fleet summary
//
// plus the operational endpoints from RegisterDebug (/metrics as Prometheus
// text exposition, /debug/metrics.json, /debug/flightrecorder, /healthz,
// /debug/vars, /debug/pprof/*) — one HTTP surface for data and ops.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/households/{id}/capture", s.handleUpload("capture"))
	mux.HandleFunc("POST /v1/ingest/inspector", s.handleUpload("inspector"))
	mux.HandleFunc("GET /v1/households/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	RegisterDebug(mux, s)
	return mux
}

// handleUpload is the shared ingestion front end: admission first (the
// slot check happens before a single body byte is consumed), then the
// upload is processed on this request goroutine and its verdict written.
// Every upload records an `upload` root span (when tracing is on) with the
// stage spans as children, and leaves one structured log line.
func (s *Server) handleUpload(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		household := r.PathValue("id")
		if kind == "capture" && household == "" {
			s.respond(w, http.StatusBadRequest, s.errEnvelope("missing household id", 0))
			return
		}
		if s.draining.Load() {
			s.reg.Counter("serve_upload_rejected", "reason", "draining").Inc()
			s.respond(w, http.StatusServiceUnavailable, s.errEnvelope("server draining", s.cfg.RetryAfter))
			s.logUpload(kind, household, http.StatusServiceUnavailable, uploadStats{}, "none", len(s.slots), time.Since(start))
			return
		}
		admitDepth := len(s.slots)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx, root := s.spans.StartSpan(ctx, "serve", "upload",
			"kind", kind, "household", household, "queue_depth_admit", strconv.Itoa(admitDepth))
		if !s.admit() {
			s.reg.Counter("serve_upload_rejected", "reason", "queue_full").Inc()
			root.SetAttr("status", "429")
			root.End()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
			s.respond(w, http.StatusTooManyRequests,
				s.errEnvelope("ingestion queue full, retry later", s.cfg.RetryAfter))
			s.logUpload(kind, household, http.StatusTooManyRequests, uploadStats{}, "none", admitDepth, time.Since(start))
			return
		}
		defer s.release()
		j := &job{
			kind:      kind,
			household: household,
			body:      &ctxReader{ctx: ctx, r: http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)},
			ctx:       ctx,
		}
		// A timeout cancels ctx, which process observes before starting and
		// ctxReader mid-stream, answering 503 promptly.
		res := s.process(j)
		cache := "none"
		if res.cache != "" {
			cache = res.cache
			w.Header().Set("X-Cache", cache)
		}
		root.SetAttr("status", strconv.Itoa(res.status))
		if res.status >= 500 {
			root.Fail()
		}
		root.End()
		total := time.Since(start)
		s.mLatency.Observe(float64(total) / float64(time.Millisecond))
		s.respond(w, res.status, res.body)
		s.logUpload(kind, household, res.status, j.stats, cache, admitDepth, total)
	}
}

// handleReport serves a household's inspector record summary.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	body, ok := s.report(r.PathValue("id"))
	if !ok {
		s.respond(w, http.StatusNotFound, s.errEnvelope("unknown household", 0))
		return
	}
	s.respond(w, http.StatusOK, body)
}

// handleArtifact computes a registry artifact over the ingested fleet.
// Artifacts whose pipelines need the offline lab answer 409.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	ctx, root := s.spans.StartSpan(r.Context(), "serve", "artifact", "name", r.PathValue("name"))
	body, err := s.RunFleetArtifact(ctx, r.PathValue("name"))
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, ErrOfflineArtifact) {
			status = http.StatusConflict
		}
		root.SetAttr("status", strconv.Itoa(status))
		root.End()
		s.respond(w, status, s.errEnvelope(err.Error(), 0))
		return
	}
	root.SetAttr("status", "200")
	root.End()
	s.respond(w, http.StatusOK, body)
}

// handleFleet serves the fleet summary.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.respond(w, http.StatusOK, s.fleet())
}

// respond writes a JSON response and counts it under
// serve_responses{code=...} — the per-status-code view of the v1 surface.
func (s *Server) respond(w http.ResponseWriter, status int, body []byte) {
	s.reg.Counter("serve_responses", "code", strconv.Itoa(status)).Inc()
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	// Explicit Content-Length keeps responses identity-framed whatever their
	// size, so minimal HTTP/1.1 clients (the in-sim vnet smoke, shell tools)
	// never need chunked decoding.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
