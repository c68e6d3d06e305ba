// Command benchmark is the repository's benchmark: it builds the real
// SNIPE stack in one process, drives one closed-loop workload against it,
// checks every result, and prints the workload's metrics by name and unit.
// See README.md in this directory for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const outDir = "benchmark/out"

// pinnedCPU is the CPU the process is bound to, or -1 when binding failed;
// the environment envelope records it.
var pinnedCPU = -1

func main() {
	// One P on one CPU: with two Ps every operation pays a cross-vCPU
	// wake-up whose cost the hypervisor sets, and with one P on two CPUs
	// the kernel still moves the running thread between them (README,
	// design rule 1).
	runtime.GOMAXPROCS(1)
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: running unpinned: %v\n", err)
	} else {
		pinnedCPU = cpu
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: msg_small, msg_bulk, catalog_mix or service_call")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (key order, payload bytes)")
	seconds := fs.Int("seconds", 20, "length of the timed region")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	quick := fs.Bool("quick", false, "smoke run: a 6-s timed region")
	selfcheck := fs.Bool("selfcheck", false, "run every workload three times and compare the runs against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck {
		return runSelfcheck(*seed, *seconds)
	}
	info, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload <%s> -seed <n> [-seconds <n>] [-trace 0|1] [-quick]\n", workloadNames())
		return 2
	}
	cfg := runConfig{info: info, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *quick {
		cfg.seconds = 6
	}

	var out *outcome
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out, err = runTraced(cfg)
	} else {
		out, err = runGated(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return emit(cfg, defs, out)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// result is the last line of standard output, the contract with whatever
// drives the benchmark.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// resultFile is what a run leaves in outDir: the result line, where it
// was measured, and every value the run produced, gated or not.
type resultFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Env      envelope           `json:"env"`
	Result   result             `json:"result"`
	Values   map[string]float64 `json:"values"`
}

func resultPath(workload string, traced bool) string {
	suffix := ""
	if traced {
		suffix = "-trace"
	}
	return filepath.Join(outDir, "result-"+workload+suffix+".json")
}

// emit prints every value the run produced, writes the span file and the
// result file with its environment envelope, and ends with the result
// line. A failed op, a failed end-of-run check or a missing metric makes
// the run incorrect and the exit code non-zero.
func emit(cfg runConfig, defs []metricDef, out *outcome) int {
	metrics, missing := report(defs, out.values)
	for _, m := range missing {
		out.problems = append(out.problems, "metric not produced: "+m)
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	env := readEnvelope()

	fmt.Printf("workload %s seed %d: %d s timed, trace %v, input digest %016x\n",
		cfg.info.name, cfg.seed, cfg.seconds, cfg.trace, out.digest)
	names := make([]string, 0, len(out.values))
	for n := range out.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", cfg.info.name+"/"+n, out.values[n], units[n])
	}
	if len(out.setups) > 0 {
		fmt.Printf("  set-ups, s: %.4f\n", out.setups)
	}
	if r := out.timed; r != nil {
		fmt.Printf("  ops per %v slice, the best stretch starts at slice %d:\n ", sliceLen, r.quietFirst)
		for i, n := range r.slices {
			if i > 0 && i%20 == 0 {
				fmt.Printf("\n ")
			}
			fmt.Printf(" %d", n)
		}
		fmt.Println()
	}
	for _, p := range out.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	envJSON, _ := json.Marshal(env) // a struct of strings and ints cannot fail to marshal
	fmt.Printf("env %s\n", envJSON)

	if cfg.trace {
		path := filepath.Join(outDir, "trace-"+cfg.info.name+".jsonl")
		if err := out.tracer.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			res.Correct = false
		}
	}
	file := resultFile{cfg.info.name, cfg.seed, cfg.seconds, env, res, out.values}
	if err := writeJSON(resultPath(cfg.info.name, cfg.trace), file); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		res.Correct = false
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
