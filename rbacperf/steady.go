package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// steady runs the workload o.steady times in child processes, one seed
// each (o.seed, o.seed+1, …), and prints each metric's median, quartiles and
// spread (quartile distance over median) — the figures the bounds in
// BENCHMARK.json are set from, and the way to show that two sets of runs
// agree.
func steady(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rbacperf:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, self, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace))
		// A signal to this process reaches the child as SIGTERM, and the
		// child gets the time its own teardown needs before it is killed.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 30 * time.Second
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "rbacperf: seed %d: %v\n", seed, err)
			return 2
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "rbacperf: seed %d: %v\n", seed, err)
			return 2
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d (share %.6f)\n",
			seed, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Fprintf(stdout, "%-32s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range sortedKeys(values) {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-32s %12.4f %12.4f %12.4f %8.4f  %s\n", name, q1, med, q3, spread, units[name])
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method) for the outer two and takes the plain median.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Exclusive method: position p*(n+1), 1-based, clamped to the data.
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), quantileOf(s, 0.5), at(0.75)
}
