// Command perfbench is the repository's benchmark. It builds every input
// from the paper-scale synthetic corpus (datagen.DefaultConfig under the
// workload seed), drives the program through its public packages, checks
// every answer against a reference, and prints every metric by name and
// unit, with one JSON result object as the last line.
//
//	go run . -root .. -workload serve-bow -seed 1 -seconds 20 -trace 0
//
// Workloads: serve-bow and expert-session drive an in-process QUEST server
// over loopback with an open-loop generator; batch-train-classify trains
// and classifies offline. -trace 1 runs the traced variant, which reports
// the per-layer metrics and the tracing overhead instead of the end-to-end
// ones and writes its spans under <root>/.bench_build/traces. See
// METRICS.md for every metric and how it is measured.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 3

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	root     string
	work     string
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "serve-bow | expert-session | batch-train-classify")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: corpus, fold split and request mix derive from it")
	flag.IntVar(&seconds, "seconds", 20, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant (per-layer metrics)")
	flag.StringVar(&o.root, "root", ".", "repository checkout the program is built from")
	flag.StringVar(&o.work, "work", "", "scratch directory for databases and traces (default <root>/.bench_build)")
	flag.Parse()
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if seconds := o.duration.Seconds(); seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	var rep *report
	var err error
	switch o.workload {
	case serveBow.name, expertSession.name:
		spec := serveBow
		if o.workload == expertSession.name {
			spec = expertSession
		}
		if o.trace {
			rep, err = runServingTraced(o, spec)
		} else {
			rep, err = runServing(o, spec)
		}
	case "batch-train-classify":
		if o.trace {
			rep, err = runBatchTraced(o)
		} else {
			rep, err = runBatch(o)
		}
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	if err := rep.write(os.Stdout); err != nil {
		return err
	}
	if rep.t.failed > 0 {
		return fmt.Errorf("%d of %d operations failed the reference check", rep.t.failed, rep.t.attempted)
	}
	return nil
}
