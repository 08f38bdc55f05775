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
// with IOTLAB_MAIN=1, so a test can check the exit status of a real run.
func TestMain(m *testing.M) {
	if os.Getenv("IOTLAB_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A pcap file that cannot be created fails the run.
func TestOutWriteErrorFailsRun(t *testing.T) {
	dir := t.TempDir()
	// A directory holds the router's file name, so creating the file fails.
	router := filepath.Join(dir, "0242c0a80a01.pcap")
	if err := os.Mkdir(router, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-idle", "1m", "-interactions", "2", "-out", dir)
	cmd.Env = append(os.Environ(), "IOTLAB_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run with an unwritable pcap file: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), router) {
		t.Fatalf("output does not name the failed file %s:\n%s", router, out)
	}
}
