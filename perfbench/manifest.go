package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"ballista/internal/version"
)

// manifest records what produced a result: host, toolchain, code
// version and the run's sizes.
type manifest struct {
	Workload      string  `json:"workload"`
	Unit          string  `json:"unit"`
	Trace         int     `json:"trace"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Code          string  `json:"code"`
	Cap           int     `json:"cap"`
	FleetCap      int     `json:"fleet_cap"`
	ExploreRuns   int     `json:"explore_runs"`
	ExploreBudget int     `json:"explore_budget"`
	ScarceBudget  int     `json:"scarce_budget"`
	CrashMaxOps   int     `json:"crash_max_ops"`
	CrashBudget   int     `json:"crash_budget"`
	Workers       int     `json:"workers"`
	SetupReps     int     `json:"setup_reps"`
	MemoryLimitMB int     `json:"memory_limit_mb"`
}

func newManifest(w workload, c config, trace int) manifest {
	return manifest{
		Workload: w.name, Unit: w.unit, Trace: trace, Seed: c.seed, Seconds: c.seconds,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Code: version.Stamp(),
		Cap: c.cap, FleetCap: c.fleetCap, ExploreRuns: c.exploreRuns, ExploreBudget: c.exploreBudget,
		ScarceBudget: c.scarceBudget, CrashMaxOps: c.crashMaxOps, CrashBudget: c.crashBudget,
		Workers: c.workers, SetupReps: c.setupReps, MemoryLimitMB: memoryLimit >> 20,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
