package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when figures asks it to, so each test
// drives main through its flags exactly as a user does.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its stdout and stderr.
func runMain(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestRejectsNegativeFlags: a repetition count under one or a negative
// payload cap is an error naming the flag, before any entry runs.
func TestRejectsNegativeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{{"-reps", "-1"}, {"-reps", "0"}, {"-max-real", "-1"}} {
		stdout, stderr, err := runMain(t, tc.flag, tc.value, "-profile", "skx-impi", "-study", "check")
		if err == nil {
			t.Errorf("%s %s: command succeeded", tc.flag, tc.value)
		}
		if !strings.Contains(stderr, tc.flag+" "+tc.value) {
			t.Errorf("%s %s: error does not name the flag: %q", tc.flag, tc.value, stderr)
		}
		if stdout != "" {
			t.Errorf("%s %s: ran anyway:\n%s", tc.flag, tc.value, stdout)
		}
	}
}

// TestAppendedFlagRunsOnce: a study flag whose entry -study already
// names does not run it a second time.
func TestAppendedFlagRunsOnce(t *testing.T) {
	stdout, stderr, err := runMain(t, "-profile", "skx-impi", "-per-decade", "1", "-reps", "2", "-study", "check", "-check")
	if err != nil {
		t.Fatalf("%v: %s", err, stderr)
	}
	if n := strings.Count(stdout, "== E10 "); n != 1 {
		t.Errorf("E10 printed %d times, want once:\n%s", n, stdout)
	}
}
