package iotlan

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// artifactsGolden pins the bytes of every artifact the root determinism
// tests already render: one sha256 per artifact, keyed "<suite>/<ID>", and
// one per pcap file of the sequential everything run, keyed
// "pcaps-<seed>/<file>". The determinism tests compare runs with each
// other; this file compares them with committed values, so an artifact
// cannot move unnoticed.
// Regenerate with -update only for a change that is meant to alter output,
// and name the artifacts that moved in the change log.
const artifactsGolden = "testdata/artifacts_golden.json"

// artifactDigest hashes a result's ID, rendition and sorted metrics, the
// rule the benchmark's repro checksum uses.
func artifactDigest(r Result) string {
	h := sha256.New()
	io.WriteString(h, r.ID)
	io.WriteString(h, "\x00")
	io.WriteString(h, r.Rendered)
	io.WriteString(h, "\x00")
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, r.Metrics[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkArtifactGolden compares each result's digest with the golden entry
// for suite and names every artifact that moved or is missing.
func checkArtifactGolden(t *testing.T, suite string, results ...Result) {
	t.Helper()
	got := make(map[string]string, len(results))
	for _, r := range results {
		got[r.ID] = artifactDigest(r)
	}
	checkGolden(t, suite, got)
}

// fileDigests hashes every file in dir, keyed by file name.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return got
}

// checkGolden compares digests, keyed by name, with the golden entries
// "<suite>/<name>" and names every entry that moved or is missing. With
// -update it rewrites the suite's entries and leaves the others alone.
func checkGolden(t *testing.T, suite string, digests map[string]string) {
	t.Helper()
	golden := map[string]string{}
	b, err := os.ReadFile(artifactsGolden)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatalf("%s: %v", artifactsGolden, err)
		}
	case !(*updateGolden && os.IsNotExist(err)):
		t.Fatal(err)
	}
	prefix := suite + "/"
	got := make(map[string]string, len(digests))
	for name, d := range digests {
		got[prefix+name] = d
	}
	if *updateGolden {
		for k := range golden {
			if strings.HasPrefix(k, prefix) {
				delete(golden, k)
			}
		}
		for k, v := range got {
			golden[k] = v
		}
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactsGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var moved []string
	for k, v := range got {
		if golden[k] != v {
			moved = append(moved, k)
		}
	}
	for k := range golden {
		if _, ok := got[k]; !ok && strings.HasPrefix(k, prefix) {
			moved = append(moved, k)
		}
	}
	sort.Strings(moved)
	for _, k := range moved {
		t.Errorf("%s: digest %q, golden %q", k, got[k], golden[k])
	}
	if len(moved) > 0 {
		t.Errorf("%d entries differ from %s", len(moved), artifactsGolden)
	}
}
