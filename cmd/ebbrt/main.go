// Command ebbrt lists and runs the experiments registered in
// internal/experiments: the paper's tables and figures, their
// ablations, and the cluster experiments.
//
//	ebbrt list
//	ebbrt run [-scale smoke|full] [-events file] <name>...|all
//
// At -scale smoke a run that reports metrics rewrites its committed
// BENCH_<name>.json in the current directory, which is how a golden is
// regenerated. The exit status is 1 if any run violated one of its
// conditions.
package main

import (
	"flag"
	"fmt"
	"os"

	"ebbrt/internal/audit"
	"ebbrt/internal/experiments"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ebbrt list\n       ebbrt run [-scale smoke|full] [-events file] <name>...|all")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		for _, s := range experiments.Specs {
			fmt.Printf("%-21s %s\n", s.Name, s.Doc)
		}
	case "run":
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ebbrt:", err)
			os.Exit(1)
		}
	default:
		usage()
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ebbrt run", flag.ExitOnError)
	scaleName := fs.String("scale", "full", "parameter preset: smoke (what CI's golden test runs) or full (the experiment's defaults)")
	eventsPath := fs.String("events", "", "write the runs' audit events (JSON lines) to this file")
	fs.Parse(args)

	scales := map[string]experiments.Scale{"smoke": experiments.Smoke, "full": experiments.Full}
	scale, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	var specs []experiments.Spec
	for _, name := range fs.Args() {
		found := false
		for _, s := range experiments.Specs {
			if name == "all" || name == s.Name {
				specs = append(specs, s)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q (see `ebbrt list`)", name)
		}
	}
	if len(specs) == 0 {
		usage()
	}

	var log *audit.Log
	if *eventsPath != "" {
		sink, openErr := audit.CreateFileSink(*eventsPath)
		if openErr != nil {
			return openErr
		}
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("event log: %w", cerr)
			}
		}()
		log = audit.NewLog(sink)
	}

	failed := 0
	for _, s := range specs {
		fmt.Printf("== %s: %s\n\n", s.Name, s.Doc)
		rep := s.Run(scale, log)
		fmt.Println(rep.Text)
		if len(rep.Metrics) > 0 {
			js := rep.JSON()
			fmt.Printf("%s", js)
			if scale == experiments.Smoke {
				golden := experiments.GoldenFile(s.Name)
				if err := os.WriteFile(golden, js, 0o644); err != nil {
					return err
				}
				fmt.Println("wrote", golden)
			}
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", s.Name, f)
		}
		failed += len(rep.Failures)
		fmt.Println()
	}
	if failed > 0 {
		return fmt.Errorf("%d condition(s) violated", failed)
	}
	return nil
}
