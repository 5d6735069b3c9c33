// Command dagbench is the repository's benchmark: one process that runs a
// named workload through the packages' public constructors and prints its
// end-to-end metrics (untraced) or per-layer metrics (traced). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash dagbench/run.sh --workload paper-sync --seed 42 --seconds 30 --trace 0
//
// See dagbench/README.md for the metric, layer and workload tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/specdag/specdag/internal/sim"
)

// gateSeed is the seed the repository's gated benchmark strings were
// recorded at (bench_test.go's benchSeed).
const gateSeed = 42

// scratchDir holds temporary files (spills, checkpoints, span dumps) inside
// the checkout the benchmark runs in.
const scratchDir = ".bench_build"

// maxWorkers caps the engines' worker pools: load comes from this one
// process, on at most this many CPUs.
const maxWorkers = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", gateSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: dagbench --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		os.Exit(1)
	}
	workers := min(maxWorkers, runtime.NumCPU())
	sim.SetWorkers(workers)

	var golden map[string]string
	var goldenErr error
	if *seed == gateSeed {
		golden, goldenErr = loadGolden("BENCH_parallel.json")
	}

	measure := time.Duration(*seconds) * time.Second
	fmt.Printf("dagbench: workload %s (%s), seed %d, %d s, workers pinned to %d (nproc %d)\n",
		w.name, w.why, *seed, *seconds, workers, runtime.NumCPU())
	out := result{Metrics: map[string]metric{}}
	if *trace == 0 {
		r := newRunner(context.Background(), *seed, workers, nil, golden)
		r.op(goldenErr, "read gated strings")
		if err := loop(r, w, measure); err != nil {
			fmt.Fprintln(os.Stderr, "dagbench:", err)
		}
		e := endToEnd(r)
		printEndToEnd(r, e)
		out.Metrics = e.metrics()
		out.Attempted, out.Failed = r.attempted, r.failed
		printFailures(r)
	} else {
		// The untraced half gives the reference for the tracing overhead and
		// the outputs the traced half must reproduce byte for byte.
		plain := newRunner(context.Background(), *seed, workers, nil, golden)
		plain.op(goldenErr, "read gated strings")
		if err := loop(plain, w, measure/2); err != nil {
			fmt.Fprintln(os.Stderr, "dagbench:", err)
		}
		tr := newTracer()
		traced := newRunner(context.Background(), *seed, workers, tr, golden)
		if err := loop(traced, w, measure/2); err != nil {
			fmt.Fprintln(os.Stderr, "dagbench:", err)
		}
		sameOutputs(traced, plain)
		probes := runProbes(traced, w)
		layers := perLayer(w, traced, plain, probes)
		printLayers(w, layers)
		for _, l := range layers {
			if l.inJSON {
				out.Metrics[l.name] = metric{Value: l.value, Unit: l.unit}
			}
		}
		path := filepath.Join(scratchDir, fmt.Sprintf("dagbench-spans-%s-seed%d.tsv", w.name, *seed))
		traced.op(tr.writeSpans(path), "write spans")
		fmt.Printf("spans: %d written to %s\n", len(tr.snapshot()), path)
		out.Attempted = plain.attempted + traced.attempted
		out.Failed = plain.failed + traced.failed
		printFailures(plain)
		printFailures(traced)
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loop repeats the workload's deterministic pass until the measuring time
// is spent (at least once), sampling the live heap throughout.
func loop(r *runner, w workload, measure time.Duration) error {
	r.heap.Start(2 * time.Millisecond)
	defer r.heap.Stop()
	deadline := time.Now().Add(measure)
	for r.passes == 0 || time.Now().Before(deadline) {
		if err := w.pass(r); err != nil {
			return err
		}
	}
	return nil
}

// sameOutputs checks that tracing changed nothing the program computes: the
// traced loop's gated strings and pass fingerprint (every unit's accuracies
// and the final DAGs) must equal the untraced loop's.
func sameOutputs(traced, plain *runner) {
	ok := len(traced.fingerprints) > 0 && len(plain.fingerprints) > 0 &&
		traced.fingerprints[0] == plain.fingerprints[0]
	traced.check(ok, "traced outputs differ from untraced outputs")
	for k, v := range plain.gated {
		traced.check(traced.gated[k] == v, "traced gated %s = %q, untraced %q", k, traced.gated[k], v)
	}
}

func printFailures(r *runner) {
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
}
