package serve

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"time"

	"iotlan/internal/obs"
)

// This file is the repo's single operational HTTP surface. iotserve mounts
// it on the service mux; iotrepro's -http flag mounts the same endpoints
// (replacing its earlier ad-hoc DefaultServeMux listener, which had no
// read/write timeouts and a second HTTP surface of its own):
//
//	/metrics               Prometheus text exposition (version 0.0.4):
//	                       the one rendering of every registry
//	/debug/flightrecorder  recent + slowest + errored request traces
//	                       as Chrome trace JSON (server muxes only)
//	/healthz               liveness: drain state, stopped WAL
//	/debug/vars            expvar (Go runtime state: memstats, cmdline)
//	/debug/pprof           CPU/heap/goroutine profiles

// MetricsSource names one obs registry for /metrics. Registry covers the
// common case; Lazy defers resolution to request time for registries that
// do not exist yet when the mux is built (iotrepro's lab telemetry is only
// created once the run starts). A source resolving to nil renders nothing.
type MetricsSource struct {
	Name     string
	Registry *obs.Registry
	Lazy     func() *obs.Registry
}

func (src MetricsSource) resolve() *obs.Registry {
	if src.Registry != nil {
		return src.Registry
	}
	if src.Lazy != nil {
		return src.Lazy()
	}
	return nil
}

// DebugMux returns a fresh mux carrying only the operational endpoints —
// what iotrepro -http serves.
func DebugMux(sources ...MetricsSource) *http.ServeMux {
	mux := http.NewServeMux()
	registerDebug(mux, nil, sources...)
	return mux
}

// registerDebug mounts the operational endpoints onto mux. The server, when
// non-nil, contributes its own registry and drain state.
func registerDebug(mux *http.ServeMux, s *Server, extra ...MetricsSource) {
	sources := append([]MetricsSource(nil), extra...)
	if s != nil {
		sources = append([]MetricsSource{{Name: "serve", Registry: s.reg}}, sources...)
	}

	// /metrics is Prometheus text exposition — what a scraper expects.
	// Each source renders namespaced under its name (a metric already
	// carrying the prefix, like serve_*, stays unchanged), so several
	// registries share one scrape without colliding.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		for _, src := range sources {
			if reg := src.resolve(); reg != nil {
				reg.WritePrometheusPrefixed(w, src.Name)
			}
		}
	})

	if s != nil {
		// The flight recorder dump: Chrome trace JSON of the retained
		// request traces — load into chrome://tracing or Perfetto during
		// (or after) an incident.
		mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			s.flight.Dump(w)
		})
	}

	// A stopped WAL refuses every inspector upload until a restart, so the
	// server is not healthy while it is stopped.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		var body struct {
			Status string `json:"status"`
			Error  string `json:"error,omitempty"`
		}
		body.Status = "ok"
		if s != nil && s.Draining() {
			status, body.Status = http.StatusServiceUnavailable, "draining"
		} else if s != nil && s.wal != nil {
			if err := s.wal.Err(); err != nil {
				status, body.Status, body.Error = http.StatusServiceUnavailable, "wal_stopped", err.Error()
			}
		}
		writeJSON(w, status, mustJSON(body))
	})

	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// NewHTTPServer wraps a handler in an http.Server with sane operational
// timeouts — the fix for the original iotrepro -http listener, which used
// http.ListenAndServe's zero-valued server (no read-header, read, write, or
// idle bounds, so one stalled client could hold a connection forever).
// Write and idle bounds stay generous: capture uploads legitimately stream
// for a while under load.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
