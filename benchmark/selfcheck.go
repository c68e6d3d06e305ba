package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// manifestPath is the benchmark's contract file, relative to the
// repository root the benchmark is run from.
const manifestPath = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

const selfcheckRuns = 3

// ungated are the metrics the self-check prints without a bound, so that
// the evidence for keeping them out of the gate (or for letting them back
// in) comes from the same runs as everything else.
var ungated = []string{"ops_per_s", "op_p50_us"}

// runSelfcheck runs every workload selfcheckRuns times, each in a fresh
// process of this same binary, alternating the workload order and stepping
// the seed, and prints each metric's values, median and relative spread
// (max-min over median). It fails when any run fails or when two runs of
// one workload disagree on a gated metric by more than the metric's bound
// in BENCHMARK.json: a bound the benchmark cannot hold against itself
// cannot judge a change.
func runSelfcheck(seed uint64, seconds int) int {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", manifestPath, err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}

	// values[workload][metric] collects one value per run.
	values := make(map[string]map[string][]float64)
	ok := true
	for run := 0; run < selfcheckRuns; run++ {
		order := append([]workloadInfo(nil), workloads...)
		if run%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			file, err := runChild(exe, w.name, seed+uint64(run), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: run %d of %s: %v\n", run, w.name, err)
				ok = false
				continue
			}
			res := file.Result
			fmt.Printf("run %d %-13s attempted %d failed %d correct %v\n", run, w.name, res.Attempted, res.Failed, res.Correct)
			if !res.Correct || res.Failed > 0 {
				ok = false
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, v := range file.Values {
				values[w.name][name] = append(values[w.name][name], v)
			}
		}
	}

	fmt.Printf("\n%-34s %s  %12s %8s %6s\n", "workload/metric", strings.Repeat(fmt.Sprintf("%14s", "run"), selfcheckRuns), "median", "spread", "bound")
	row := func(workload, metric string, bound float64) {
		vs := values[workload][metric]
		if len(vs) != selfcheckRuns {
			fmt.Printf("%-34s missing from %d of %d runs\n", workload+"/"+metric, selfcheckRuns-len(vs), selfcheckRuns)
			ok = false
			return
		}
		sorted := append([]float64(nil), vs...)
		med := median(sorted)
		spread := ratio(sorted[len(sorted)-1]-sorted[0], med)
		verdict := "  not gated"
		if bound > 0 {
			verdict = fmt.Sprintf(" %5.0f%%", 100*bound)
			if spread > bound {
				verdict += "  EXCEEDS BOUND"
				ok = false
			}
		}
		cells := ""
		for _, v := range vs {
			cells += fmt.Sprintf("%14s", strconv.FormatFloat(v, 'f', 3, 64))
		}
		fmt.Printf("%-34s %s  %12.3f %7.2f%%%s\n", workload+"/"+metric, cells, med, 100*spread, verdict)
	}
	for _, w := range workloads {
		for _, d := range m.EndToEnd {
			row(w.name, d.Name, d.Bound)
		}
		for _, name := range ungated {
			row(w.name, name, 0)
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}

// runChild runs one untraced benchmark process to completion and reads
// the result file it leaves behind.
func runChild(exe, workload string, seed uint64, seconds int) (*resultFile, error) {
	path := resultPath(workload, false)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result file: %w", err)
	}
	var file resultFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}
