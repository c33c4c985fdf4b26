package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// Fixed sizes of the four workloads.  Later changes are judged against
// these, so they change only in a change to the benchmark itself.
const (
	// campaignCap is the per-MuT case limit of the campaign and replay
	// workloads.  The paper's 5000 does not fit a 20-second run on a
	// 2-vCPU host, so the benchmark runs the full catalog at a lower cap.
	campaignCap = 300
	// fleetCap is the per-MuT case limit of the fleet campaign.
	fleetCap = 30
	// exploreRuns explore campaigns of exploreBudget chains each make one
	// pass's explore sweep, 2000 chains in all.  The per-chain cost of
	// one coverage-guided campaign depends on its seed's trajectory (a
	// factor of three between seeds); sixteen independent trajectories
	// average that out to about 5% between workload seeds, so the
	// figures depend on the code, not the seed.
	exploreRuns   = 16
	exploreBudget = 125
	// crashMaxOps bounds crash-workload chain length.
	crashMaxOps = 3
	// workers is the worker, slot and pool size of every engine: the
	// benchmark host's nproc.
	workers = 2
	// setupReps is how many times each run repeats its set-up; setup_s
	// is their median.
	setupReps = 3
	// memoryLimit is the Go soft memory limit of the benchmark process.
	// The POSIX truncate/ftruncate cases grow a simulated file to 2 GiB
	// of real memory; without a limit the garbage collector lets the
	// heap reach twice that before collecting.
	memoryLimit = 3 << 30
)

func main() {
	code, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the command line, runs one workload and prints its result;
// the last line of out is the JSON summary.  It returns the exit code.
func run(ctx context.Context, args []string, out io.Writer) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "how long the measured loop runs")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := fl.String("root", ".", "repository checkout the benchmark reads goldens from")
	outDir := fl.String("out", ".bench_build", "directory for scratch files, traces and results")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	digests, err := loadDigests(*root)
	if err != nil {
		return 1, err
	}
	golden, err := os.ReadFile(filepath.Join(*root, "testdata", "scarcesweep-golden.json"))
	if err != nil {
		return 1, fmt.Errorf("reading the scarce golden: %w", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)

	debug.SetMemoryLimit(memoryLimit)
	cfg := defaultConfig(*seed, *seconds, work)
	cfg.digests = digests
	cfg.scarceGolden = golden

	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, w, cfg, filepath.Join(*outDir, "trace-"+w.name+".jsonl"))
	} else {
		res, err = runMeasured(ctx, w, cfg)
	}
	if err != nil {
		return 1, err
	}
	res.Manifest = newManifest(w, cfg, *trace)
	if err := writeResult(filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace)), res); err != nil {
		return 1, err
	}
	if err := printResult(out, res); err != nil {
		return 1, err
	}
	return 0, nil
}

// loadDigests reads the committed output digests.
func loadDigests(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "perfbench", "digests.json"))
	if err != nil {
		return nil, fmt.Errorf("reading committed digests: %w", err)
	}
	var d map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing perfbench/digests.json: %w", err)
	}
	return d, nil
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the summary the last output line carries,
// plus the manifest and the diagnostics written to the result file.
type result struct {
	summary
	Manifest manifest `json:"manifest"`
	Problems []string `json:"problems,omitempty"`
	// Setups and Passes are each set-up's and each measured pass's wall
	// time in seconds (untraced passes first in a traced run).
	Setups []float64 `json:"setup_seconds"`
	Passes []float64 `json:"pass_seconds"`
}

// summary is the exact shape of the last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints the manifest, every metric by name with its unit,
// the failure share and any output-check problems, then the JSON
// summary as the last line.
func printResult(out io.Writer, res *result) error {
	man, err := json.Marshal(res.Manifest)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "manifest %s\n", man)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-30s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(out, "%-30s %16.6g share (%d of %d units)\n", "failed_share", share, res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Fprintf(out, "problem: %s\n", p)
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
