// Command rbacperf is the rbacd benchmark. It stands up an in-process rbacd
// stack on loopback sockets, drives one named workload against it from a
// seed, checks every answer, and prints one JSON line of metrics:
//
//	rbacperf --workload hot-reads --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line holds every end-to-end metric; with --trace 1 a
// traced pass follows an untraced one on the same seed and the line holds
// every per-layer metric, including the tracing overhead. --steady k runs
// the workload k times (seeds seed..seed+k-1) in child processes and prints
// each metric's median and quartiles. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists every end-to-end metric with its unit.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_live_mb", "MiB"},
	{"read_ops_s", "1/s"},
	{"decisions_s", "1/s"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	steady   int
	// inject falsifies one answer of the named kind (verdict, ack or token)
	// as it arrives, to show that the checks catch it.
	inject string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Exit codes: 0 a correct run, 1 a failed check (the result line says
// correct=false), 2 a run that could not complete (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("rbacperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per pass")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced pass")
	fs.IntVar(&o.steady, "steady", 0, "run the workload this many times and print medians and quartiles")
	fs.StringVar(&o.inject, "inject", "", "report one wrong answer: verdict, ack or token")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def := lookupWorkload(o.workload)
	if def == nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || !validInjection(o.inject) {
		fmt.Fprintf(stderr, "rbacperf: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if o.steady > 0 {
		return steady(o, stdout, stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	base := buildDir()
	if err := os.MkdirAll(filepath.Join(base, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "rbacperf:", err)
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(base, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "rbacperf:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	// A signal cancels the run, which then tears its stack down. Should that
	// hang, the scratch directory still goes and the process exits.
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-finished:
			return
		case <-ctx.Done():
		}
		select {
		case <-finished:
		case <-time.After(20 * time.Second):
			os.RemoveAll(dir)
			os.Exit(2)
		}
	}()

	// A run that cannot finish (a call the system never answers) still
	// ends, and in time.
	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintln(stderr, "rbacperf: run did not finish in", watchdogAfter)
		os.RemoveAll(dir)
		os.Exit(2)
	})
	defer watchdog.Stop()
	res, err := measure(ctx, def, o, dir, stderr)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "rbacperf: interrupted")
		} else {
			fmt.Fprintln(stderr, "rbacperf:", err)
		}
		return 2
	}
	for _, f := range res.faults {
		fmt.Fprintln(stderr, "rbacperf: check failed:", f)
	}
	line, err := resultLine(res, o.trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "rbacperf:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// watchdogAfter bounds one run (its traced pass included).
const watchdogAfter = 170 * time.Second

// buildDir is where builds, scratch data and span files go: inside the
// checkout, under the directory the build already uses.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// measure runs the untraced pass and, for --trace 1, a traced pass on the
// same seed whose per-layer metrics it returns instead.
func measure(ctx context.Context, def *workloadDef, o options, dir string, log io.Writer) (*result, error) {
	dur := time.Duration(o.seconds) * time.Second
	n := setups
	if o.trace == 1 {
		n = 1
	}
	plain := &pass{def: def, seed: o.seed, dur: dur, dir: filepath.Join(dir, "plain"), inject: o.inject, log: log}
	if err := plain.build(ctx, n); err != nil {
		return nil, err
	}
	res, _, err := plain.run(ctx)
	if err != nil {
		return nil, err
	}
	if o.trace == 0 {
		return res, nil
	}
	traced := &pass{def: def, seed: o.seed, dur: dur, dir: filepath.Join(dir, "traced"), traced: true, log: log}
	if err := traced.build(ctx, 1); err != nil {
		return nil, err
	}
	tres, r, err := traced.run(ctx)
	if err != nil {
		return nil, err
	}
	// The unbounded end-to-end figures come from the untraced pass.
	for _, name := range []string{"e2e.authorize_p50_us", "e2e.check_p50_us", "e2e.commits_s", "e2e.submit_p50_us", "e2e.authorize_p99_us"} {
		tres.metrics[name] = res.metrics[name]
	}
	if u := res.metrics["read_ops_s"]; u > 0 {
		tres.metrics["trace.overhead_pct"] = 100 * (u - tres.metrics["read_ops_s"]) / u
	}
	path := filepath.Join(buildDir(), "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", def.name, o.seed))
	if err := r.tracer.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	tres.correct = tres.correct && res.correct
	tres.faults = append(res.faults, tres.faults...)
	return tres, nil
}

// resultLine renders the last line of standard output.
func resultLine(res *result, traced bool) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, n := range names {
		v, ok := res.metrics[n.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n.name)
		}
		out.Metrics[n.name] = metric{Value: v, Unit: n.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// sortedKeys is used by the steadiness report.
func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
