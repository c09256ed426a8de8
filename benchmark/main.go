// Command benchmark is the repository's benchmark: five workloads over
// the measurement pipeline (kernel -> session -> archive or daemon ->
// analysis -> report), twelve end-to-end metrics with regression
// bounds, and — in a traced run — per-layer metrics and spans. See
// README.md in this directory for every definition.
//
//	go run ./benchmark -seed 1                  every workload, untraced then traced
//	go run ./benchmark -workload fib-fine -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -selfcheck               are two sets of runs within the bounds?
//	go run ./benchmark -smoke                   tiny inputs, one round, checks only
//
// With -workload the last line of standard output is one JSON object
// (correct, attempted, failed, metrics) — the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one; everything else
// goes to standard error. The command exits non-zero when an output
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	smoke     bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the contract's result line (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the pair order, the query windows and archive-query's synthetic trace")
	flag.Float64Var(&o.seconds, "seconds", 18, "how long each run's paired rounds measure (at least five rounds run regardless)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 records spans and runs the layer probes, 0 measures end to end")
	flag.StringVar(&o.out, "out", "", "also write every metric of every run to this JSON file")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs, one paired round, output checks on, no bounds (CI)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice with -seed and once with -seed+1 and compare against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-smoke] [-selfcheck]")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecksFailed makes the command exit non-zero after it has printed
// everything it measured.
var errChecksFailed = fmt.Errorf("output checks failed")

func run(o options) error {
	fmt.Fprintf(os.Stderr, "benchmark: seed=%d seconds=%g num_cpu=%d gomaxprocs=%d %s smoke=%v\n",
		o.seed, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.smoke)
	switch {
	case o.selfcheck:
		return selfcheck(o)
	case o.workload != "":
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		out, err := runOne(w, o, o.seed, o.trace == 1)
		if err != nil {
			return err
		}
		line, err := contractLine(out.m, contractDefs(out.traced), out.ops.attempted, out.ops.failed)
		if err != nil {
			return err
		}
		if err := writeOut(o.out, []*outcome{out}); err != nil {
			return err
		}
		fmt.Println(line)
		if out.ops.failed > 0 {
			return errChecksFailed
		}
		return nil
	default:
		return runAll(o)
	}
}

// runOne runs one workload once and prints its metrics to standard
// error.
func runOne(w *workload, o options, seed int64, traced bool) (*outcome, error) {
	e := &env{
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		seconds: o.seconds,
		smoke:   o.smoke,
		dir:     filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid())),
		workers: min(2, runtime.NumCPU()),
	}
	if traced {
		e.tr = newTracer()
	}
	fmt.Fprintf(os.Stderr, "\n== %s seed=%d traced=%v\n   why: %s\n", w.name, seed, traced, w.why)
	out, err := runWorkload(w, e)
	if err != nil {
		return nil, err
	}
	out.m.print(os.Stderr, contractDefs(traced))
	fmt.Fprintf(os.Stderr, "  %-36s %14d count\n  %-36s %14d count\n  %-36s %14.6g frac\n  rounds=%d wall=%.1fs\n",
		"ops_attempted", out.ops.attempted, "ops_failed", out.ops.failed,
		"failed_frac", float64(out.ops.failed)/float64(max(out.ops.attempted, 1)), out.rounds, out.wall.Seconds())
	for _, f := range out.ops.failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	return out, nil
}

// runAll is the one command that prints every metric: each workload
// untraced, then traced, and the tracing overhead between the two.
func runAll(o options) error {
	var outs []*outcome
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		plain, err := runOne(w, o, o.seed, false)
		if err != nil {
			return err
		}
		traced, err := runOne(w, o, o.seed, true)
		if err != nil {
			return err
		}
		// The two runs differ only in the recorded spans and the probes
		// after the rounds, so the pipeline wall's change is what
		// tracing costs.
		a, b := plain.m.get("pipeline_s"), traced.m.get("pipeline_s")
		traced.m.set("trace_overhead_frac", "frac", (b-a)/a)
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g frac     (pipeline_s traced %.6g s vs untraced %.6g s)\n", "trace_overhead_frac", (b-a)/a, b, a)
		outs = append(outs, plain, traced)
		failed += plain.ops.failed + traced.ops.failed
	}
	if err := writeOut(o.out, outs); err != nil {
		return err
	}
	if failed > 0 {
		return errChecksFailed
	}
	return nil
}

// fileRun is one run in the -out file.
type fileRun struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Rounds    int               `json:"rounds"`
	WallS     float64           `json:"wall_s"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]value  `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// writeOut stores the runs with the host facts needed to read them.
func writeOut(path string, outs []*outcome) error {
	if path == "" {
		return nil
	}
	doc := struct {
		NumCPU     int       `json:"num_cpu"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		GoVersion  string    `json:"go_version"`
		Time       string    `json:"time"`
		Runs       []fileRun `json:"runs"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), time.Now().UTC().Format(time.RFC3339), nil}
	for _, o := range outs {
		doc.Runs = append(doc.Runs, fileRun{
			Workload: o.workload, Seed: o.seed, Traced: o.traced, Rounds: o.rounds, WallS: o.wall.Seconds(),
			Attempted: o.ops.attempted, Failed: o.ops.failed, Failures: o.ops.failures,
			Metrics: o.m.vals, Notes: o.m.notes,
		})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
