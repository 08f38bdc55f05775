package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/obs"
	"iotlan/internal/serve/store"
)

// openTestServer is newTestServer for durable configs: Open instead of New,
// surfacing recovery errors.
func openTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// copyDataDir clones a server's data directory so two boots can start from
// the same bytes.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func fleetOf(t *testing.T, s *Server) fleetSummary {
	t.Helper()
	var f fleetSummary
	if err := json.Unmarshal(do(s, "GET", "/v1/fleet", nil).Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDurableRecoveryRoundTrip: ingest → graceful Close (final checkpoint +
// WAL sync) → reopen: the fleet and its artifacts survive byte-for-byte,
// including a reopen under a different shard count (households re-shard by
// hash on apply, so the on-disk layout does not pin the topology).
func TestDurableRecoveryRoundTrip(t *testing.T) {
	const households = 24
	ds := inspector.Generate(51, households)
	dir := t.TempDir()

	s := openTestServer(t, Config{Workers: 2, Shards: 4, QueueCapacity: households, DataDir: dir})
	ingestFleet(t, s, ds.Households)
	table2 := fetchArtifact(t, s, "table2")
	mitigations := fetchArtifact(t, s, "mitigations")
	s.Close()

	for _, shards := range []int{4, 3} {
		re := openTestServer(t, Config{Workers: 2, Shards: shards, QueueCapacity: households, DataDir: copyDataDir(t, dir)})
		if got := fleetOf(t, re); got.Households != households {
			t.Fatalf("shards=%d: recovered %d households, want %d", shards, got.Households, households)
		}
		if got := fetchArtifact(t, re, "table2"); !bytes.Equal(got, table2) {
			t.Fatalf("shards=%d: recovered table2 differs:\n%s\nvs\n%s", shards, got, table2)
		}
		if got := fetchArtifact(t, re, "mitigations"); !bytes.Equal(got, mitigations) {
			t.Fatalf("shards=%d: recovered mitigations differ", shards)
		}
		if re.reg.CounterValue("serve_wal_replay_truncated") != 0 {
			t.Fatalf("shards=%d: clean recovery flagged truncation", shards)
		}
		re.Close()
	}
}

// TestWALReplayTruncatedTail: a WAL tail damaged mid-record (the shape a
// crash leaves) replays up to the last intact record — which is served —
// and the drop is counted under serve_wal_replay_truncated, never fatal.
func TestWALReplayTruncatedTail(t *testing.T) {
	ds := inspector.Generate(52, 3)
	dir := t.TempDir()

	s := openTestServer(t, Config{Workers: 1, Shards: 2, DataDir: dir})
	ingestFleet(t, s, ds.Households[:1])
	s.Close()

	// Simulate records written after the final checkpoint: a fresh segment
	// holding one intact record and one torn one.
	segs, err := store.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	intact, err := json.Marshal(ds.Households[1].Wire())
	if err != nil {
		t.Fatal(err)
	}
	torn, err := json.Marshal(ds.Households[2].Wire())
	if err != nil {
		t.Fatal(err)
	}
	frame := store.EncodeRecord(nil, intact)
	frame = store.EncodeRecord(frame, torn)
	frame = frame[:len(frame)-7] // tear the second record's tail off
	seg := segs[len(segs)-1] + 1
	if err := os.WriteFile(filepath.Join(dir, store.SegmentName(seg)), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestServer(t, Config{Workers: 1, Shards: 2, DataDir: dir})
	if got := re.reg.CounterValue("serve_wal_replay_truncated"); got != 1 {
		t.Fatalf("serve_wal_replay_truncated = %d, want 1", got)
	}
	// The intact record before the tear is recovered and served…
	if w := do(re, "GET", "/v1/households/"+ds.Households[1].ID+"/report", nil); w.Code != http.StatusOK {
		t.Fatalf("household from intact tail record: status %d", w.Code)
	}
	// …the torn record's household is not.
	if w := do(re, "GET", "/v1/households/"+ds.Households[2].ID+"/report", nil); w.Code != http.StatusNotFound {
		t.Fatalf("household from torn record: status %d, want 404", w.Code)
	}
	if got := fleetOf(t, re); got.Households != 2 {
		t.Fatalf("recovered %d households, want 2", got.Households)
	}
}

// TestCheckpointCompaction is satellite 4: after a checkpoint, the
// pre-checkpoint WAL segments are (a) actually deleted when compaction is
// on, and (b) redundant when retained — boot-from-checkpoint and
// boot-from-full-WAL produce byte-identical artifacts.
func TestCheckpointCompaction(t *testing.T) {
	const households = 30
	ds := inspector.Generate(53, households)

	// Compaction on: pre-checkpoint segments must be gone.
	dirC := t.TempDir()
	s := openTestServer(t, Config{Workers: 2, Shards: 4, QueueCapacity: households,
		DataDir: dirC, CheckpointEvery: 10})
	ingestFleet(t, s, ds.Households)
	s.Close()
	ckpts, err := store.Checkpoints(dirC)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoints: %v, %v", ckpts, err)
	}
	segs, err := store.Segments(dirC)
	if err != nil {
		t.Fatal(err)
	}
	latest := ckpts[len(ckpts)-1]
	if len(ckpts) != 1 {
		t.Fatalf("compaction retained %d checkpoints, want 1", len(ckpts))
	}
	for _, seg := range segs {
		if seg < latest {
			t.Fatalf("pre-checkpoint segment %d survived compaction (checkpoint %d)", seg, latest)
		}
	}
	if s.reg.CounterValue("serve_checkpoints") < 2 {
		t.Fatalf("periodic checkpointing never fired: %d checkpoints", s.reg.CounterValue("serve_checkpoints"))
	}

	// Retention on: every segment still present; the checkpoint is then
	// provably redundant — deleting all checkpoints (full-WAL boot) yields
	// the same bytes as the checkpoint boot.
	dirR := t.TempDir()
	s2 := openTestServer(t, Config{Workers: 2, Shards: 4, QueueCapacity: households,
		DataDir: dirR, CheckpointEvery: 10, retainWAL: true})
	ingestFleet(t, s2, ds.Households)
	want2 := fetchArtifact(t, s2, "table2")
	wantM := fetchArtifact(t, s2, "mitigations")
	s2.Close()

	fromCkpt := openTestServer(t, Config{Workers: 1, Shards: 4, DataDir: copyDataDir(t, dirR), retainWAL: true})
	if fromCkpt.reg.CounterValue("serve_checkpoint_households_loaded") == 0 {
		t.Fatal("checkpoint boot did not load from the checkpoint")
	}

	walDir := copyDataDir(t, dirR)
	for _, seq := range mustCheckpoints(t, walDir) {
		if err := os.RemoveAll(filepath.Join(walDir, store.CheckpointName(seq))); err != nil {
			t.Fatal(err)
		}
	}
	fromWAL := openTestServer(t, Config{Workers: 1, Shards: 4, DataDir: walDir, retainWAL: true})
	if fromWAL.reg.CounterValue("serve_wal_replay_records") < households {
		t.Fatalf("full-WAL boot replayed %d records, want >= %d",
			fromWAL.reg.CounterValue("serve_wal_replay_records"), households)
	}

	for name, want := range map[string][]byte{"table2": want2, "mitigations": wantM} {
		a, b := fetchArtifact(t, fromCkpt, name), fetchArtifact(t, fromWAL, name)
		if !bytes.Equal(a, want) || !bytes.Equal(b, want) {
			t.Fatalf("%s: boot-from-checkpoint and boot-from-full-WAL disagree with the original:\nckpt: %s\nwal:  %s\norig: %s",
				name, a, b, want)
		}
	}
	fa, fb := fleetOf(t, fromCkpt), fleetOf(t, fromWAL)
	if fa != fb || fa.Households != households {
		t.Fatalf("fleet summaries disagree: %+v vs %+v", fa, fb)
	}
}

// TestStoppedLogFailsStop: once a WAL failure has stopped the log, every
// inspector upload answers 503 with retry_after_ms 0 — only a restart
// reopens the log, so a client retry cannot help — and counts under
// serve_upload_rejected{reason="wal"}, and /healthz answers 503 naming the
// stopped WAL, while captures (stateless) and artifact reads still answer
// 200.
func TestStoppedLogFailsStop(t *testing.T) {
	ds := inspector.Generate(55, 3)
	s := openTestServer(t, Config{Workers: 1, Shards: 2, DataDir: t.TempDir()})
	ingestFleet(t, s, ds.Households[:1])
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households[1:]...))
		var e struct {
			RetryAfterMS *int64 `json:"retry_after_ms"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusServiceUnavailable ||
			e.RetryAfterMS == nil || *e.RetryAfterMS != 0 || w.Header().Get("Retry-After") != "" {
			t.Fatalf("post %d on a stopped log: %d %s (Retry-After %q), want 503 with retry_after_ms 0",
				i, w.Code, w.Body.String(), w.Header().Get("Retry-After"))
		}
		if n := s.reg.CounterValue(obs.Key("serve_upload_rejected", "reason", "wal")); n != uint64(i) {
			t.Fatalf("serve_upload_rejected{reason=wal} = %d after %d posts", n, i)
		}
	}
	var health struct{ Status, Error string }
	w := do(s, "GET", "/healthz", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil || w.Code != http.StatusServiceUnavailable ||
		health.Status != "wal_stopped" || health.Error != store.ErrClosed.Error() {
		t.Fatalf("/healthz on a stopped log: %d %s, want 503 wal_stopped with the log's error", w.Code, w.Body.String())
	}
	if w := do(s, "POST", "/v1/households/cap/capture", capturePCAP(t, ds.Households[2])); w.Code != http.StatusOK {
		t.Fatalf("capture upload on a stopped log: %d %s", w.Code, w.Body.String())
	}
	if w := do(s, "GET", "/v1/artifacts/table2", nil); w.Code != http.StatusOK {
		t.Fatalf("artifact read on a stopped log: %d %s", w.Code, w.Body.String())
	}
}

func mustCheckpoints(t *testing.T, dir string) []int {
	t.Helper()
	seqs, err := store.Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

// TestDurableAckSurvivesUncleanStop: records acknowledged under the default
// group-commit mode are on disk the moment the ack leaves — a server that
// never gets to Close (no final checkpoint, no WAL close) still recovers
// every acknowledged household from the raw log on the next boot.
func TestDurableAckSurvivesUncleanStop(t *testing.T) {
	const households = 12
	ds := inspector.Generate(54, households)
	dir := t.TempDir()

	s, err := Open(Config{Workers: 2, Shards: 4, QueueCapacity: households,
		DataDir: dir, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ingestFleet(t, s, ds.Households)
	want := fetchArtifact(t, s, "table2")
	// No Close: the process "dies" with the WAL unclosed and no checkpoint.
	// (The open WAL segment leaks for the rest of the test binary — the
	// price of simulating a crash in-process; the subprocess SIGKILL
	// harness in cmd/iotserve covers the real thing.)

	re := openTestServer(t, Config{Workers: 2, Shards: 4, DataDir: copyDataDir(t, dir)})
	if got := fleetOf(t, re); got.Households != households {
		t.Fatalf("recovered %d households after unclean stop, want %d", got.Households, households)
	}
	if got := fetchArtifact(t, re, "table2"); !bytes.Equal(got, want) {
		t.Fatalf("table2 after unclean stop differs:\n%s\nvs\n%s", got, want)
	}
	if re.reg.CounterValue("serve_wal_replay_records") != households {
		t.Fatalf("replayed %d records, want %d", re.reg.CounterValue("serve_wal_replay_records"), households)
	}
}
