package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started again
// with IOTREPRO_MAIN=1, so a test can check the exit status and the files of
// a real run.
func TestMain(m *testing.M) {
	if os.Getenv("IOTREPRO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// iotrepro runs the command with args and returns its combined output.
func iotrepro(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IOTREPRO_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// An artifact that builds no lab sends no frame: -pcap-dir writes no file
// and the run succeeds.
func TestPcapDirWithoutLab(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pcaps")
	if out, err := iotrepro(t, "-artifact", "table3", "-pcap-dir", dir); err != nil {
		t.Fatalf("iotrepro -artifact table3 -pcap-dir: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("a run without a lab wrote %d files", len(entries))
	}
}

// A pcap file that cannot be created fails the run.
func TestPcapDirWriteErrorFailsRun(t *testing.T) {
	dir := t.TempDir()
	// A directory holds the router's file name, so creating the file fails.
	router := filepath.Join(dir, "0242c0a80a01.pcap")
	if err := os.Mkdir(router, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := iotrepro(t, "-artifact", "figure2", "-idle", "1m", "-interactions", "2", "-pcap-dir", dir)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run with an unwritable pcap file: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(out, router) {
		t.Fatalf("output does not name the failed file %s:\n%s", router, out)
	}
}
