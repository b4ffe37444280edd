// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one named workload per invocation and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (process CPU time per
// op, set-up time, peak heap); with -trace 1 the run is
// repeated with the benchmark's own spans and a CPU profile, the op stream
// is replayed down a layer ladder (device engine → cluster → replicated
// fleet → traced cluster → transaction coordinator → RESP server), and the
// metrics are the per-layer set. Every read is checked; a wrong read makes
// "correct" false. METRICS.md maps each metric to its layer and workload.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload resp-kv --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// workloadFn runs one workload and fills the result; params.trace selects
// the per-layer (traced) run.
type workloadFn func(p params, res *result) error

// params are the command-line inputs every workload receives.
type params struct {
	seed    int64
	seconds int
	trace   bool
}

var workloads = map[string]workloadFn{
	"resp-kv":        runRespKV,
	"resp-fleet-txn": runRespFleetTxn,
	"sim-lowvk":      runSimLowVK,
	"sim-highvk":     runSimHighVK,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: resp-kv | resp-fleet-txn | sim-lowvk | sim-highvk")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds = flag.Int("seconds", 16, "nominal wall budget; picks how many fixed-size rounds or passes run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res := newResult()
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := fn(p, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.printSummary(os.Stdout)
	out, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
