// Command servebench is the repository's end-to-end serving benchmark. It
// builds a serve.Server with the default Config, drives its HTTP handler
// in-process (httptest requests, no sockets) from one closed-loop client,
// checks every answer against an independent reference, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as one
// JSON object on the last line of standard output.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload hot-solve --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span dump path for traced runs
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 7

// run executes one benchmark run and returns the process exit code. wrap,
// when non-nil, wraps the server's handler; the self-test uses it to
// corrupt answers and prove the oracle catches them.
func run(args []string, stdout, stderr io.Writer, wrap func(http.Handler) http.Handler) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "span dump file for traced runs (default .bench_build/servebench/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "servebench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "servebench: --seconds must be positive")
		return 2
	}
	w, ok := newWorkload(o.workload, o.seed, o.seconds)
	if !ok {
		fmt.Fprintf(stderr, "servebench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/servebench/spans-%s-%d.jsonl", o.workload, o.seed)
	}
	res, err := measure(w, o, stdout, wrap)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "servebench: %s: %d of %d operations failed verification\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// workloads lists the workload names in the order they are documented.
var workloadList = []string{"cold-solve", "hot-solve", "cache-churn", "route-walk"}

func workloadNames() string { return strings.Join(workloadList, ", ") }

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64, seconds float64) (mix, bool) {
	switch name {
	case "cold-solve":
		return newColdSolve(seed, seconds), true
	case "hot-solve":
		return newHotSolve(seed), true
	case "cache-churn":
		return newCacheChurn(seed), true
	case "route-walk":
		return newRouteWalk(seed), true
	}
	return nil, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
