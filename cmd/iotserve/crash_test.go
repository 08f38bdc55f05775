package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/serve/store"
)

// This file is the crash-recovery harness: it builds the real iotserve
// binary, runs it as a subprocess with -data-dir, SIGKILLs it mid-ingest,
// restarts it on the same directory, and proves that every acknowledged
// upload survived, that a torn WAL tail is dropped cleanly (counted, not
// fatal) without hiding the segments written after it, and that the
// recovered fleet's artifacts are byte-identical to a server that never
// crashed.

// buildServe compiles the iotserve binary once per test binary.
var buildServe = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "iotserve-bin-")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "iotserve")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// serveProc is one subprocess instance of the service.
type serveProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
}

// startServe launches iotserve on an ephemeral port and waits for its
// listening line.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{
		"-addr", "127.0.0.1:0", "-log-format", "none",
	}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
			}
		}
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("iotserve never announced its listen address")
	}
	// The announcement precedes Serve; wait for the mux to answer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return &serveProc{cmd: cmd, base: base}
}

// upload posts one household in the inspector wire format and reports
// whether the server acknowledged it with 200.
func (p *serveProc) upload(t *testing.T, hh *inspector.Household) bool {
	t.Helper()
	var buf bytes.Buffer
	if err := inspector.EncodeWire(&buf, []*inspector.Household{hh}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+"/v1/ingest/inspector", "application/jsonl", &buf)
	if err != nil {
		return false // connection died: the kill won the race
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// get fetches a path and returns the body, failing on non-200.
func (p *serveProc) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// metricValue scrapes one un-labeled counter from /metrics.
func (p *serveProc) metricValue(t *testing.T, name string) string {
	t.Helper()
	for _, line := range strings.Split(string(p.get(t, "/metrics")), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// TestCrashRecovery is the end-to-end durability gate. Timeline:
//
//  1. boot A on an empty -data-dir, ack a deterministic prefix of the
//     fleet, keep uploading, SIGKILL mid-stream — no drain, no final
//     checkpoint, no WAL close; the last bOnly households never reach A;
//  2. scar the log the way a torn write would (half a record appended to a
//     fresh segment);
//  3. boot B on the same directory (different shard count) with the
//     shadow-batch self-check armed: every acknowledged household is
//     served, the torn tail is counted under serve_wal_replay_truncated,
//     nothing else is lost, and the boot-time self-check proves the live
//     incremental aggregates the replay rebuilt render byte-identically to
//     a batch recompute (serve_selfcheck{result="ok"} > 0, no mismatches);
//  4. upload the full fleet and compare artifact bytes against a server
//     that never crashed: checksum-identical, self-check still clean;
//  5. SIGKILL B too and boot C on the same directory: B logged its uploads
//     in the segment after the torn one, and C must replay past the tear
//     to serve them — the bOnly households above all, which only B's
//     segment holds — with artifacts equal to the clean run's and a clean
//     self-check;
//  6. SIGTERM C: its drain writes a final checkpoint.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	bin, err := buildServe()
	if err != nil {
		t.Fatal(err)
	}
	const households = 40
	const ackedPrefix = 25
	const bOnly = 5
	ds := inspector.Generate(77, households)
	dataDir := filepath.Join(t.TempDir(), "data")

	// Phase 1: ingest, then die hard.
	a := startServe(t, bin, "-data-dir", dataDir, "-shards", "4", "-checkpoint-every", "10", "-workers", "2")
	acked := make(map[string]bool, households)
	for _, hh := range ds.Households[:ackedPrefix] {
		if !a.upload(t, hh) {
			t.Fatalf("upload %s not acknowledged", hh.ID)
		}
		acked[hh.ID] = true
	}
	// Keep the ingest stream live while the kill lands: whatever of these
	// gets a 200 must also survive.
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, hh := range ds.Households[ackedPrefix : households-bOnly] {
			if a.upload(t, hh) {
				mu.Lock()
				acked[hh.ID] = true
				mu.Unlock()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let some in-flight uploads race the kill
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()
	wg.Wait()
	t.Logf("killed with %d/%d households acknowledged", len(acked), households)

	// Phase 2: scar the tail — a torn record in a fresh segment, the shape
	// an interrupted write leaves on disk.
	segs, err := store.Segments(dataDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	torn := store.EncodeRecord(nil, []byte(`{"id":"never-acked"}`))
	tornPath := filepath.Join(dataDir, store.SegmentName(segs[len(segs)-1]+1))
	if err := os.WriteFile(tornPath, torn[:len(torn)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// checkSelfCheck: the live partials match a batch recompute of the
	// stored records, shard by shard.
	checkSelfCheck := func(p *serveProc, when string) {
		t.Helper()
		ok := p.metricValue(t, `serve_selfcheck{result="ok"}`)
		if n, err := strconv.Atoi(ok); err != nil || n <= 0 {
			t.Fatalf("%s: serve_selfcheck{result=\"ok\"} = %q, want > 0", when, ok)
		}
		if bad := p.metricValue(t, `serve_selfcheck{result="mismatch"}`); bad != "" && bad != "0" {
			t.Fatalf("%s: %s self-check mismatches — recovered live aggregates diverged from batch", when, bad)
		}
	}
	// recovered checks a server booted on the scarred directory: the torn
	// tail counted once, the boot-time self-check — run against exactly the
	// recovered state, the live partials the replay rebuilt through the
	// fold path — clean, and every acknowledged household served.
	recovered := func(p *serveProc, when string) {
		t.Helper()
		if got := p.metricValue(t, "serve_wal_replay_truncated"); got != "1" {
			t.Fatalf("%s: serve_wal_replay_truncated = %q, want 1", when, got)
		}
		checkSelfCheck(p, when)
		for id := range acked {
			resp, err := http.Get(p.base + "/v1/households/" + id + "/report")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: acknowledged household %s lost in crash: status %d", when, id, resp.StatusCode)
			}
		}
	}

	// Phase 3: boot on the scarred directory with a different shard count,
	// self-checking after every fold.
	b := startServe(t, bin, "-data-dir", dataDir, "-shards", "7", "-workers", "2", "-selfcheck-every", "1")
	recovered(b, "after recovery boot")

	// Phase 4: top up to the full fleet and diff against a clean run.
	for _, hh := range ds.Households {
		if !b.upload(t, hh) {
			t.Fatalf("top-up upload %s failed", hh.ID)
		}
		acked[hh.ID] = true
	}
	clean := startServe(t, bin, "-data-dir", filepath.Join(t.TempDir(), "clean"), "-shards", "4", "-workers", "2")
	for _, hh := range ds.Households {
		if !clean.upload(t, hh) {
			t.Fatalf("clean upload %s failed", hh.ID)
		}
	}
	sameArtifacts := func(p *serveProc, when string) {
		t.Helper()
		for _, name := range []string{"table2", "mitigations"} {
			got := p.get(t, "/v1/artifacts/"+name)
			want := clean.get(t, "/v1/artifacts/"+name)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s differs from clean run:\n%s\nvs\n%s", when, name, got, want)
			}
		}
	}
	sameArtifacts(b, "after crash recovery")
	checkSelfCheck(b, "after top-up")

	// Phase 5: crash again. B never checkpointed, so the torn segment still
	// sits between A's segments and B's.
	if err := b.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	b.cmd.Wait()
	c := startServe(t, bin, "-data-dir", dataDir, "-shards", "5", "-workers", "2", "-selfcheck-every", "1")
	recovered(c, "after the second crash")
	sameArtifacts(c, "after the second crash")

	// Phase 6: graceful exit writes a final checkpoint: SIGTERM, then verify
	// one exists so the next boot loads a snapshot instead of a full replay.
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
	ckpts, err := store.Checkpoints(dataDir)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint after graceful drain: %v %v", ckpts, err)
	}
}
