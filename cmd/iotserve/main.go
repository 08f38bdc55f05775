// Command iotserve runs the crowdsourced capture-ingestion service: the
// long-lived production shape of the paper's §6.3 pipeline, accepting
// per-household uploads and serving per-household reports plus fleet-level
// registry artifacts (Table 2 entropy/uniqueness over every ingested
// household).
//
// Endpoints:
//
//	POST /v1/households/{id}/capture   libpcap body, streamed record by record
//	POST /v1/ingest/inspector          JSONL batch in the inspector wire format
//	GET  /v1/households/{id}/report    accumulated per-household analysis
//	GET  /v1/artifacts/{name}          registry artifact over the fleet
//	GET  /v1/fleet                     fleet summary
//	GET  /metrics /healthz /debug/...  operational surface
//
// Uploads flow through a bounded worker pool behind a fixed-capacity queue;
// a full queue answers 429 + Retry-After. Capture reports are cached by
// content hash. SIGINT/SIGTERM drains gracefully: queued and in-flight
// analyses finish, new uploads get 503, then the listener shuts down.
// SIGQUIT dumps the flight recorder (recent + slowest + errored request
// traces) as Chrome trace JSON to a file and keeps serving — the in-flight
// incident snapshot.
//
// With -data-dir set the service is durable: every acknowledged inspector
// ingest is written to a checksummed write-ahead log before fleet state
// changes, periodic checkpoints snapshot the sharded fleet, and boot
// replays checkpoint + WAL — acknowledged uploads survive SIGKILL. Fleet
// state is sharded by household-ID hash (-shards), each shard keeping live
// aggregates of the two artifacts computed from uploads (table2 and
// mitigations); artifact bytes are identical for any shard count. Every
// other registry artifact, table3's static lab inventory included, answers
// 409.
//
// Usage:
//
//	iotserve [-addr :8080] [-workers N] [-queue 64] [-max-upload 67108864]
//	         [-timeout 30s] [-retry-after 1s] [-cache 4096]
//	         [-log-format text|json] [-trace=true] [-flight 256]
//	         [-data-dir DIR] [-shards N] [-checkpoint-every 4096]
//	         [-wal-sync group|always|none] [-selfcheck-every N]
//	iotserve -selftest    # serve an in-sim fleet over the virtual LAN
//	                      # (internal/vnet), verify artifacts, exit — no
//	                      # sockets, ports, or network privileges needed
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"iotlan/internal/serve"
	"iotlan/internal/serve/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "analysis workers (0 = one per CPU)")
	queue := flag.Int("queue", 64, "ingestion queue capacity (full queue answers 429)")
	maxUpload := flag.Int64("max-upload", 64<<20, "maximum upload body bytes (413 beyond)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-upload budget: queue wait + analysis")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	cache := flag.Int("cache", 4096, "content-hash cache entries for capture reports")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget on SIGTERM")
	logFormat := flag.String("log-format", "text", "structured request log format: text, json, or none")
	trace := flag.Bool("trace", true, "record per-upload spans into the flight recorder")
	flight := flag.Int("flight", 0, "flight recorder capacity: recent traces retained (0 = default)")
	selftest := flag.Bool("selftest", false, "serve an in-sim fleet over the virtual LAN (no sockets), verify artifacts, and exit")
	dataDir := flag.String("data-dir", "", "durable state directory: WAL + checkpoints (empty = in-memory only)")
	shards := flag.Int("shards", 8, "fleet state shards (artifact bytes are shard-count invariant)")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "checkpoint after this many WAL records (0 = only on shutdown)")
	walSync := flag.String("wal-sync", "group", "WAL fsync policy: group (coalesced, default), always (per record), none (page cache only)")
	selfCheckEvery := flag.Int("selfcheck-every", 0, "shadow-batch self-check after this many folds: recompute every shard from scratch and compare to the live aggregates (0 = never)")
	flag.Parse()

	if *selftest {
		if err := runSelftest(42, 8); err != nil {
			fmt.Fprintln(os.Stderr, "iotserve: selftest:", err)
			os.Exit(1)
		}
		return
	}

	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "iotserve: unknown -log-format %q (want text, json, or none)\n", *logFormat)
		os.Exit(2)
	}

	syncMode, err := store.ParseSyncMode(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotserve:", err)
		os.Exit(2)
	}
	s, err := serve.Open(serve.Config{
		Workers:            *workers,
		QueueCapacity:      *queue,
		MaxUploadBytes:     *maxUpload,
		RequestTimeout:     *timeout,
		RetryAfter:         *retryAfter,
		CacheEntries:       *cache,
		DisableTracing:     !*trace,
		FlightRecorderSize: *flight,
		Logger:             logger,
		DataDir:            *dataDir,
		Shards:             *shards,
		CheckpointEvery:    *checkpointEvery,
		WALSync:            syncMode,
		SelfCheckEvery:     *selfCheckEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotserve:", err)
		os.Exit(1)
	}
	httpSrv := serve.NewHTTPServer(*addr, s.Mux())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotserve:", err)
		os.Exit(1)
	}
	fmt.Printf("iotserve: listening on %s (workers=%d queue=%d)\n", ln.Addr(), *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// SIGQUIT is the incident hook: snapshot the flight recorder to a file
	// and keep serving. (signal.Notify disarms the runtime's default
	// stack-dump-and-exit handling for it.)
	if fr := s.FlightRecorder(); fr != nil {
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		go func() {
			for range quitc {
				path := filepath.Join(os.TempDir(),
					fmt.Sprintf("iotserve-flight-%d.json", time.Now().UnixNano()))
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "iotserve: flight dump:", err)
					continue
				}
				fr.Dump(f)
				f.Close()
				fmt.Printf("iotserve: SIGQUIT — dumped %d request traces to %s\n", fr.Total(), path)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("iotserve: %s — draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "iotserve:", err)
		s.Close()
		os.Exit(1)
	}

	// Drain first so /healthz flips and new uploads bounce with 503 while
	// the queue empties; then stop the listener; then stop the pool.
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "iotserve: shutdown:", err)
	}
	s.Close()
	fmt.Println("iotserve: drained, bye")
}
