// Command bench is the end-to-end benchmark of the web-transaction
// profiler. It drives the public APIs from outside the program — collector
// → Monitor or cluster Router → nodes → state store — with a
// single-goroutine open-loop load generator, checks every alert against
// an offline reference Monitor, and prints one "name value unit" line per
// metric followed, as its last line, by a JSON summary. A traced run
// prints the per-layer metrics instead and writes its spans to a trace
// file. See README.md.
//
//	bench -workload fleet-lines -seed 1 [-seconds 12] [-trace 1] [-out r.json]
//	bench compare parent/ change/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// traceFlag takes a value (0/1/true/false) rather than being a boolean
// flag, so "-trace 0" parses as the setting and not as an argument.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fleet-lines, population-2k or cluster-churn")
	seed := fs.Int64("seed", 0, "input seed (default: the workload's default seed)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the open-loop phase in seconds")
	var trace traceFlag
	fs.Var(&trace, "trace", "1 for a traced run: per-layer metrics instead of end-to-end ones, spans written to -trace-out")
	out := fs.String("out", "", "also write the full result, with run metadata, to this JSON file")
	traceOut := fs.String("trace-out", "trace.json", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	p, err := workloadByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := options{seed: p.DefaultSeed, seconds: *seconds, trace: bool(trace), traceOut: *traceOut}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seed = *seed
		}
	})
	res, err := run(p, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing result:", err)
			return 1
		}
	}
	printResult(stdout, stderr, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes the metric lines and the JSON summary line, and the
// gate's findings to stderr.
func printResult(stdout, stderr io.Writer, res *result) {
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v engine=%q cpu=%q gomaxprocs=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Meta.ScoringEngine, res.Meta.CPU, res.Meta.GOMAXPROCS)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%s %s %s\n", d.name, strconv.FormatFloat(res.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "bench: failure:", f)
	}
	for _, mm := range res.Mismatches {
		fmt.Fprintln(stderr, "bench: correctness:", mm)
	}
	b, _ := json.Marshal(summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Fprintf(stdout, "%s\n", b)
}
