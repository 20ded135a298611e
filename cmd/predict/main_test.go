package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when PREDICT_RUN_MAIN is set, so a test
// can run it in a child process and read its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("PREDICT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPredict runs the command with args and returns its stdout, stderr and
// exit status.
func runPredict(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PREDICT_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestNumericFMemPrompt: numeric mode keeps the paper tool's prompt. A
// miss-rate cliff beyond the scale models (here between 64 and 128 SMs)
// needs the large scale model's f_mem, so without -fmem the command exits
// 1 asking for it; -fmem 0 is a measurement, and Eq. 3 then predicts
// linear scaling from the large scale model, 380 * 128/32.
func TestNumericFMemPrompt(t *testing.T) {
	curve := []string{"-small-sms", "16", "-quiet", "200", "380", "8", "8", "8", "0.4"}
	_, stderr, code := runPredict(t, curve...)
	if code != 1 || !strings.Contains(stderr, "f_mem is required") {
		t.Errorf("no -fmem: exit %d, stderr %q; want exit 1 asking for f_mem", code, stderr)
	}
	stdout, stderr, code := runPredict(t, append([]string{"-fmem", "0"}, curve...)...)
	if code != 0 {
		t.Fatalf("-fmem 0: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "128      1520.00") || !strings.Contains(stdout, "cliff") {
		t.Errorf("-fmem 0: want the 128-SM cliff row at IPC 1520.00, got\n%s", stdout)
	}
}
