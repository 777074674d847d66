// Command perfbench is the repository's serving benchmark. It starts
// three capnn-serve shards and a capnn-gateway in one process, replays a
// seeded internal/workload trace through Gateway.Route, checks every
// answer, and prints one JSON result line. Run it from the repository
// root through its wrapper:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; --trace 1
// runs the same workload with a span around every routed request, then
// probes single layers, and reports the per-layer metrics. BENCHMARK.json
// at the repository root defines the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "hot", "workload: hot or drift")
	seed := flag.Int64("seed", 1, "trace seed: picks the stretch of the workload's arrival process to replay")
	seconds := flag.Int("seconds", 35, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp describes the environment a run measured, printed to stderr
// with every result.
func stamp() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}
