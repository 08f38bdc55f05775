package serve

import (
	"log/slog"
	"strconv"

	"iotlan/internal/obs"
)

// This file derives every view of a request from its one record, the
// trace. Handlers and stages only open and end spans; traceSink receives
// each finished trace and feeds the serve_stage_ms histograms,
// serve_latency_ms with its unattributed residual, the request-log line,
// and the flight recorder.
//
// An upload's trace nests as
//
//	upload
//	├── body.read
//	├── pcap.decode | inspector.decode
//	├── cache.lookup          (captures)
//	└── analysis
//	    └── wal.append        (durable, one per fold chunk)
//
// and an artifact read as artifact → artifact.build. The root's direct
// children tile the work they cover, so the root's duration minus theirs
// is the time no stage covers: admission, the handler and the response.

// uploadStages name the serve_stage_ms{stage=...} histograms — the direct
// answer to "where did the p99 go". The last is not a span: it is the
// upload root's unattributed residual.
var uploadStages = []string{
	"body.read", "pcap.decode", "inspector.decode",
	"analysis", "cache.lookup", "artifact.build", "wal.append",
	"unattributed",
}

// msBounds is the one millisecond bucket layout of serve_stage_ms and
// serve_latency_ms: 1-2-5 steps from 1 µs, the span clock's resolution, to
// 10 s.
var msBounds = []float64{
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// traceSink is the server's span sink: the only place a finished request
// trace becomes metrics, a log line and a flight-recorder entry.
type traceSink struct{ s *Server }

// RecordTrace implements obs.SpanSink. Each stage histogram observes a
// trace's total time in that stage, so an upload whose WAL write spans
// several fold chunks counts once. A failed stage span feeds no histogram.
// An admitted upload's root feeds serve_latency_ms and the unattributed
// residual; a shed one's does not.
func (k traceSink) RecordTrace(rt obs.RequestTrace) {
	s := k.s
	root := rt.Root()
	stageUS := make(map[string]int64, len(rt.Spans))
	var childUS int64
	for _, sp := range rt.Spans {
		if sp.ParentID == root.SpanID {
			childUS += sp.Dur
		}
		if _, ok := s.stageHist[sp.Name]; ok && !sp.Err {
			stageUS[sp.Name] += sp.Dur
		}
	}
	for stage, us := range stageUS {
		s.stageHist[stage].Observe(ms(us))
	}
	if root.Name == "upload" {
		if root.Attrs["shed"] == "" {
			s.mLatency.Observe(ms(root.Dur))
			s.stageHist["unattributed"].Observe(ms(root.Dur - childUS))
		}
		s.logUpload(rt, stageUS)
	}
	s.flight.RecordTrace(rt)
}

// logUpload writes an upload's one structured line from its trace: who and
// under what admission pressure from the root's attributes (a capture's
// household) and the inspector.decode span (a wire batch's household
// count), bytes and the cache verdict from the body.read and cache.lookup
// spans, and the time in each stage from stageUS.
func (s *Server) logUpload(rt obs.RequestTrace, stageUS map[string]int64) {
	if s.logger == nil {
		return
	}
	root := rt.Root()
	var bytes int64
	var households int
	cache := "none"
	for _, sp := range rt.Spans {
		switch sp.Name {
		case "body.read":
			bytes, _ = strconv.ParseInt(sp.Attrs["bytes"], 10, 64)
		case "inspector.decode":
			households, _ = strconv.Atoi(sp.Attrs["households"])
		case "cache.lookup":
			cache = sp.Attrs["result"]
		}
	}
	who := slog.String("household", root.Attrs["household"])
	if root.Attrs["kind"] == "inspector" {
		who = slog.Int("households", households)
	}
	status, _ := strconv.Atoi(root.Attrs["status"])
	admitDepth, _ := strconv.Atoi(root.Attrs["queue_depth_admit"])
	s.logger.Info("upload",
		"kind", root.Attrs["kind"],
		who,
		"status", status,
		"bytes", bytes,
		"total_ms", ms(root.Dur),
		"body_read_ms", ms(stageUS["body.read"]),
		"decode_ms", ms(stageUS["pcap.decode"]+stageUS["inspector.decode"]),
		"analysis_ms", ms(stageUS["analysis"]),
		"cache_lookup_ms", ms(stageUS["cache.lookup"]),
		"wal_ms", ms(stageUS["wal.append"]),
		"cache", cache,
		"queue_depth_admit", admitDepth,
	)
}

// ms converts span microseconds to the milliseconds every histogram and
// log field carries.
func ms(us int64) float64 { return float64(us) / 1000 }
