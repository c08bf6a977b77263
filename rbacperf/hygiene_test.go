package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark, so the hygiene
// tests drive a real process without building one.
func TestMain(m *testing.M) {
	if os.Getenv("RBACPERF_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// start runs the benchmark as a child in its own process group.
func start(t *testing.T, buildDir string, args ...string) (*exec.Cmd, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RBACPERF_AS_MAIN=1", "CARGO_TARGET_DIR="+buildDir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, bufio.NewScanner(stderr)
}

// assertClean checks that the run left no scratch directory and no process
// of its group behind.
func assertClean(t *testing.T, buildDir string, pgid int) {
	t.Helper()
	left, _ := filepath.Glob(filepath.Join(buildDir, "tmp", "*"))
	if len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
	if err := syscall.Kill(-pgid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("process group %d still has members (kill: %v)", pgid, err)
	}
}

func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

func TestHygieneOnSuccessAndFailedCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, c := range []struct {
		inject string
		code   int
	}{{"", 0}, {"verdict", 1}} {
		dir := t.TempDir()
		args := []string{"--workload", "durable-writes", "--seconds", "1"}
		if c.inject != "" {
			args = append(args, "--inject", c.inject)
		}
		cmd, sc := start(t, dir, args...)
		for sc.Scan() {
		}
		if code := exitCode(cmd.Wait()); code != c.code {
			t.Errorf("inject %q: exit %d, want %d", c.inject, code, c.code)
		}
		assertClean(t, dir, cmd.Process.Pid)
	}
}

func TestHygieneOnSignals(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		dir := t.TempDir()
		cmd, sc := start(t, dir, "--workload", "routed", "--seconds", "30")
		measuring := false
		for sc.Scan() {
			if strings.Contains(sc.Text(), "measuring") {
				measuring = true
				break
			}
		}
		if !measuring {
			t.Fatalf("%v: the run never started measuring", sig)
		}
		time.Sleep(300 * time.Millisecond)
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		go func() {
			for sc.Scan() {
			}
		}()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if code := exitCode(err); code != 2 {
				t.Errorf("%v: exit %d, want 2", sig, code)
			}
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("%v: run did not stop", sig)
		}
		assertClean(t, dir, cmd.Process.Pid)
	}
}
