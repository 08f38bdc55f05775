package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"iotlan/internal/obs"
)

// Mux returns the service's HTTP surface:
//
//	POST /v1/households/{id}/capture   streaming libpcap upload
//	POST /v1/ingest/inspector          batch upload, inspector wire format
//	GET  /v1/households/{id}/report    the household's inspector record summary
//	GET  /v1/artifacts/{name}          registry artifact over the fleet
//	GET  /v1/fleet                     fleet summary
//
// plus the operational endpoints from registerDebug (/metrics as Prometheus
// text exposition, /debug/flightrecorder, /healthz, /debug/vars,
// /debug/pprof/*) — one HTTP surface for data and ops.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/households/{id}/capture", s.handleUpload("capture"))
	mux.HandleFunc("POST /v1/ingest/inspector", s.handleUpload("inspector"))
	mux.HandleFunc("GET /v1/households/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	registerDebug(mux, s)
	return mux
}

// handleUpload is the shared ingestion front end: admission first (the
// slot check happens before a single body byte is consumed), then the
// upload is processed on this request goroutine and its verdict written.
// Every upload, shed or admitted, is one `upload` root span with the stage
// spans as children. The root ends after the response, and the trace sink
// (trace.go) derives the upload's metrics and log line from its trace.
func (s *Server) handleUpload(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// A capture names its household in the path; a wire batch carries
		// its households in the body, and its inspector.decode span counts
		// them.
		household := r.PathValue("id")
		attrs := []string{"kind", kind, "queue_depth_admit", strconv.Itoa(len(s.slots))}
		if kind == "capture" {
			if household == "" {
				s.respond(w, http.StatusBadRequest, s.errEnvelope("missing household id", 0))
				return
			}
			attrs = append(attrs, "household", household)
		}
		ctx, root := s.spans.StartSpan(r.Context(), "serve", "upload", attrs...)
		if s.draining.Load() {
			s.shed(w, root, "draining", http.StatusServiceUnavailable,
				s.errEnvelope("server draining", s.cfg.RetryAfter))
			return
		}
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		if !s.admit() {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
			s.shed(w, root, "queue_full", http.StatusTooManyRequests,
				s.errEnvelope("ingestion queue full, retry later", s.cfg.RetryAfter))
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
		if res.cache != "" {
			w.Header().Set("X-Cache", res.cache)
		}
		root.SetAttr("status", strconv.Itoa(res.status))
		if res.status >= 500 {
			root.Fail()
		}
		s.respond(w, res.status, res.body)
		root.End()
	}
}

// shed refuses an upload that was never admitted, counting it under
// serve_upload_rejected{reason}. Its root span carries the reason as
// "shed", which keeps it out of serve_latency_ms.
func (s *Server) shed(w http.ResponseWriter, root *obs.Span, reason string, status int, body []byte) {
	s.reg.Counter("serve_upload_rejected", "reason", reason).Inc()
	root.SetAttr("shed", reason)
	root.SetAttr("status", strconv.Itoa(status))
	s.respond(w, status, body)
	root.End()
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
