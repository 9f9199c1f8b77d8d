// Command pmledger is the repository's performance ledger: one benchmark
// that runs a named workload for a fixed time, checks every output against
// a reference computed in its set-up, and prints its metrics by name and
// unit. An untraced run prints the end-to-end metrics; a traced run
// (-trace 1) repeats the workload with timing wrappers around the calls
// into each layer and prints the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash cmd/pmledger/run.sh -workload fig8-inline -seed 1 -seconds 20 -trace 0 [-out set.json]
//	bash cmd/pmledger/run.sh -workload crash-explore -trace 1 -spans spans.json
//	bash cmd/pmledger/run.sh -compare a.json b.json
//
// -out appends the run, with its CPU count, Go version and seed, to a
// result set; -compare applies BENCHMARK.json's bounds to two such sets.
// README.md describes the workloads, the metrics and how to read a traced
// run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("pmledger", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var o options
	flags.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flags.Int64Var(&o.seed, "seed", defaultSeed, "seed of every input generator")
	flags.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	traceMode := flags.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	out := flags.String("out", "", "append this run's record to the result-set file")
	spansOut := flags.String("spans", "", "write the traced run's spans to this file")
	compare := flags.Bool("compare", false, "compare two result sets given as arguments")
	bench := flags.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds, for -compare")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if flags.NArg() != 2 {
			fmt.Fprintln(stderr, "pmledger: -compare needs two result-set files")
			return 2
		}
		return runCompare(*bench, flags.Arg(0), flags.Arg(1), stdout, stderr)
	}
	if flags.NArg() != 0 {
		fmt.Fprintf(stderr, "pmledger: unexpected arguments %q\n", flags.Args())
		return 2
	}
	switch *traceMode {
	case 0:
	case 1:
		o.traced = true
	default:
		fmt.Fprintln(stderr, "pmledger: -trace takes 0 or 1")
		return 2
	}
	if *spansOut != "" && !o.traced {
		fmt.Fprintln(stderr, "pmledger: -spans needs -trace 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "pmledger: -seconds must be positive")
		return 2
	}

	l, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pmledger: %v\n", err)
		return 1
	}
	rec := l.record()
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "pmledger: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := l.tr.write(*spansOut); err != nil {
			fmt.Fprintf(stderr, "pmledger: %v\n", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintf(stderr, "pmledger: %v\n", err)
		return 1
	}
	return 0
}

// resultSet is a file of run records, the input of -compare.
type resultSet struct {
	Runs []runRecord `json:"runs"`
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// appendRecord adds the run to the result set at path, creating the file
// when it does not exist.
func appendRecord(path string, rec runRecord) error {
	set, err := readSet(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, rec)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
