// Command bench is the repository's two-clock benchmark: four open-loop
// workloads over the simulated EbbRT systems, reporting what the Go code
// costs on the host clock beside what the modelled design achieves on
// the virtual one. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four plain, then traced, then the probes)")
	seed := flag.Uint64("seed", 1, "seed the inputs are made from")
	seconds := flag.Int("seconds", 10, "wall seconds the measured window is sized for (it is fixed in virtual time, not stopped by a clock)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from counters, a traced window and the probes")
	out := flag.String("out", "", "append each run's report to this JSON-lines file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare old.jsonl new.jsonl")
	schema := flag.Bool("schema", false, "print BENCHMARK.json as the runner defines it")
	flag.Parse()

	if *schema {
		fmt.Println(benchmarkJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare old.jsonl new.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal("bad arguments; see -help")
	}
	// Everything is measured on one P: with more, each event handler's
	// goroutine hand-off races the idle P's work stealing, which doubles
	// the cost of a window and makes it vary by a fifth between processes
	// (README, "GOMAXPROCS"). go.nproc_wall_ratio keeps the other number.
	nproc := runtime.GOMAXPROCS(1)
	fmt.Printf("env: %s (GOMAXPROCS was %d)\n", envLine(), nproc)

	var reports []*report
	if *workload != "" {
		sp := findSpec(*workload)
		if sp == nil {
			fatal("unknown workload %q", *workload)
		}
		defs := endToEnd
		var r *report
		var err error
		if *trace == 0 {
			r, err = plainRun(os.Stdout, sp, *seed, *seconds)
		} else {
			defs = perLayer
			if r, err = layeredRun(os.Stdout, sp, *seed, *seconds, nproc); err == nil {
				maps.Copy(r.Metrics, runProbes(*seed, probeSeconds(*seconds)))
				r.print(os.Stdout, perLayer)
				r.printVerdict(os.Stdout)
			}
		}
		if err != nil {
			fatal("%v", err)
		}
		save(*out, []*report{r})
		// The driver reads this, the last line.
		fmt.Println(r.resultLine(defs))
		if r.Failed != 0 {
			os.Exit(1)
		}
		return
	}

	for _, sp := range specs {
		r, err := plainRun(os.Stdout, sp, *seed, *seconds)
		if err != nil {
			fatal("%v", err)
		}
		reports = append(reports, r)
	}
	for _, sp := range specs {
		r, err := layeredRun(os.Stdout, sp, *seed, *seconds, nproc)
		if err != nil {
			fatal("%v", err)
		}
		r.print(os.Stdout, layered)
		r.printVerdict(os.Stdout)
		reports = append(reports, r)
	}
	pm := runProbes(*seed, probeSeconds(*seconds))
	fmt.Println("probes:")
	(&report{Metrics: pm}).print(os.Stdout, probed)
	failed := false
	for _, r := range reports {
		if r.Trace {
			maps.Copy(r.Metrics, pm)
		}
		failed = failed || r.Failed != 0
	}
	save(*out, reports)
	if failed {
		os.Exit(1)
	}
}

func save(path string, reports []*report) {
	if path == "" {
		return
	}
	for _, r := range reports {
		if err := r.appendTo(path); err != nil {
			fatal("%v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
