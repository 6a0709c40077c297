// Command slimbench is the repository benchmark. It drives the SLIM
// stack through its public Go API from one process, as a closed loop: each
// client sends its next operation when the previous one returns. It runs
// one named workload per invocation and prints, as the last line of
// standard output, one JSON object with the run's correctness, its op
// counts and its metrics.
//
// Usage, from the repository root (slimbench/run.sh builds and runs it):
//
//	bash slimbench/run.sh --workload rounds --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, taken from a separate traced run (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rounds, query or ingest")
	seed := fs.Int64("seed", 1, "seed the workload's inputs and op sequence are generated from")
	seconds := fs.Int("seconds", 20, "length of the timed window in `seconds`")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced run")
	work := fs.String("work", ".bench_build/work", "`dir` for the files a workload persists")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "slimbench: unknown workload %q (want rounds, query or ingest)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "slimbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "slimbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, sp.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "slimbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(stderr, "slimbench:", err)
		return 1
	}

	cfg := config{seed: *seed, seconds: *seconds, dir: dir, traced: *trace == 1}
	out, err := execute(sp, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "slimbench:", err)
		return 1
	}
	line, err := out.marshal()
	if err != nil {
		fmt.Fprintln(stderr, "slimbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
}

func (r result) marshal() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number (%v)", name, v)
		}
		ms[name] = value{Value: v, Unit: unitOf(name)}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// sortedKeys returns m's keys in order, for deterministic header output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
