package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config sizes one run.  defaultConfig gives the committed sizes; tests
// shrink them.
type config struct {
	seed    uint64
	seconds float64
	work    string // scratch directory, removed when the run ends

	cap           int // campaign and replay per-MuT cap
	fleetCap      int
	exploreRuns   int
	exploreBudget int // chains per explore campaign
	scarceBudget  int // 0: the full catalog
	crashMaxOps   int
	crashBudget   int // 0: the full enumeration
	workers       int
	setupReps     int

	digests      map[string]string // committed output digests
	scarceGolden []byte            // testdata/scarcesweep-golden.json
	// corrupt, when set, rewrites an output before it is checked (tests
	// use it to prove a wrong output is counted as failed).
	corrupt func(name string, data []byte) []byte
}

func defaultConfig(seed uint64, seconds float64, work string) config {
	return config{
		seed: seed, seconds: seconds, work: work,
		cap: campaignCap, fleetCap: fleetCap,
		exploreRuns: exploreRuns, exploreBudget: exploreBudget, crashMaxOps: crashMaxOps,
		workers: workers, setupReps: setupReps,
	}
}

// workload is one named benchmark input.  setup builds an instance whose
// passes the measured loop repeats.
type workload struct {
	name  string
	unit  string
	setup func(ctx context.Context, c *config) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass runs the workload once.  tr is nil in untraced runs; in
	// traced runs every engine is built with tr's instrumented pieces.
	pass(ctx context.Context, tr *tracer) (passResult, error)
	close()
}

// passResult is what one pass produced.
type passResult struct {
	// segments time the pass's parts (none: the whole pass is one).
	segments []segment
	units    int // units completed
	failed   int // units lost: quarantines, harness-incomplete shards, rejected uploads, store misses
	// outputs are the pass's deterministic artifacts.
	outputs  []output
	problems []string
}

// segment is one timed part of a pass.
type segment struct {
	name string
	secs float64
}

// output is one named artifact and the digest it must have ("" when
// no committed or reference digest exists for this configuration).
type output struct {
	name string
	data []byte
	want string
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker compares every pass's outputs with the wanted digests and
// with the first pass that produced the same output.
type checker struct {
	corrupt  func(string, []byte) []byte
	first    map[string]string
	problems []string
}

func newChecker(c *config) *checker {
	return &checker{corrupt: c.corrupt, first: make(map[string]string)}
}

// check reports whether every output of a pass is correct.
func (k *checker) check(pr *passResult) bool {
	ok := true
	for _, o := range pr.outputs {
		data := o.data
		if k.corrupt != nil {
			data = k.corrupt(o.name, data)
		}
		got := digest(data)
		if o.want != "" && got != o.want {
			k.problems = append(k.problems, fmt.Sprintf("%s: digest %s, want %s", o.name, got, o.want))
			ok = false
		}
		if first, seen := k.first[o.name]; !seen {
			k.first[o.name] = got
		} else if got != first {
			k.problems = append(k.problems, fmt.Sprintf("%s: digest %.12s differs from the first pass's %.12s", o.name, got, first))
			ok = false
		}
	}
	return ok
}

// loopStats is what one measured loop observed.  The host this was
// tuned on runs the same work up to 15% slower from one second to the
// next, so rates, CPU and peak heap are medians over passes, and a
// pass's time is the sum over its segments of each segment's median
// across passes: a burst of interference in one segment of one pass
// does not move the result.
type loopStats struct {
	passes    int
	passSecs  []float64
	units     int // completed units of passes whose outputs checked out
	attempted int
	failed    int

	segs     map[string][]float64 // seconds per segment name, one per pass
	okUnits  []float64            // completed units per pass
	cpuPer   []float64            // CPU seconds per attempted unit, per pass
	peakHeap []float64            // peak heap object bytes per pass

	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // GC CPU seconds (runtime estimate)
	totalCPU float64 // all CPU seconds (runtime estimate)
}

// rate is the loop's units per second: the median units a pass
// completed over the median pass time.
func (st *loopStats) rate() float64 {
	var secs float64
	for _, d := range st.segs {
		secs += median(d)
	}
	if secs == 0 {
		return 0
	}
	return median(st.okUnits) / secs
}

// measureLoop repeats passes until c.seconds have elapsed (at least one
// pass), checking every pass's outputs.
func measureLoop(ctx context.Context, inst instance, c *config, tr *tracer, chk *checker) (loopStats, error) {
	st := loopStats{segs: make(map[string][]float64)}
	sampler := startHeapSampler()
	defer sampler.stop()
	rt0 := readRuntime()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for st.passes == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if tr != nil {
			tr.beginPass()
		}
		sampler.reset()
		cpu0 := cpuTime()
		passStart := time.Now()
		pr, err := inst.pass(ctx, tr)
		passSecs := time.Since(passStart).Seconds()
		cpu := (cpuTime() - cpu0).Seconds()
		peak := sampler.reset()
		st.passes++
		st.passSecs = append(st.passSecs, passSecs)
		if tr != nil {
			tr.endPass()
		}
		if err != nil {
			// A run error loses the pass: count it as one failed unit so
			// the loop still ends with attempted > 0.
			chk.problems = append(chk.problems, fmt.Sprintf("pass %d: %v", st.passes, err))
			st.attempted++
			st.failed++
			continue
		}
		chk.problems = append(chk.problems, pr.problems...)
		ok := pr.units - pr.failed
		if !chk.check(&pr) {
			ok = 0
		}
		st.attempted += pr.units
		st.failed += pr.units - ok
		st.units += ok
		if len(pr.segments) == 0 {
			pr.segments = []segment{{"pass", passSecs}}
		}
		for _, sg := range pr.segments {
			st.segs[sg.name] = append(st.segs[sg.name], sg.secs)
		}
		st.okUnits = append(st.okUnits, float64(ok))
		st.cpuPer = append(st.cpuPer, cpu/float64(max(pr.units, 1)))
		st.peakHeap = append(st.peakHeap, float64(peak))
	}
	runtime.ReadMemStats(&ms1)
	rt1 := readRuntime()
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcCycles = ms1.NumGC - ms0.NumGC
	st.gcCPU = rt1.gcCPU - rt0.gcCPU
	st.totalCPU = rt1.totalCPU - rt0.totalCPU
	return st, nil
}

// runMeasured is an untraced run: set-up repeated c.setupReps times,
// then the measured loop on the last set-up instance.
func runMeasured(ctx context.Context, w workload, c config) (*result, error) {
	inst, setup, err := setupRepeated(ctx, w, &c)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()
	chk := newChecker(&c)
	st, err := measureLoop(ctx, inst, &c, nil, chk)
	if err != nil {
		return nil, err
	}
	// Allocation counts do not depend on the host: totals over every
	// attempted unit.
	u := float64(max(st.attempted, 1))
	res := &result{
		summary: summary{
			Attempted: st.attempted,
			Failed:    st.failed,
			Correct:   st.failed == 0 && len(chk.problems) == 0,
		},
		Problems: chk.problems,
		Setups:   setup,
		Passes:   st.passSecs,
	}
	res.Metrics = map[string]metric{
		"units_per_s":          {st.rate(), "1/s"},
		"allocs_per_unit":      {float64(st.mallocs) / u, "count"},
		"alloc_bytes_per_unit": {float64(st.bytes) / u, "B"},
		"cpu_s_per_kunit":      {median(st.cpuPer) * 1000, "s"},
		"peak_heap_mb":         {median(st.peakHeap) / (1 << 20), "MiB"},
		"setup_s":              {median(setup), "s"},
	}
	return res, nil
}

// setupRepeated sets the workload up c.setupReps times, keeping the last
// instance, and returns every set-up's duration in seconds.
func setupRepeated(ctx context.Context, w workload, c *config) (instance, []float64, error) {
	reps := max(c.setupReps, 1)
	var inst instance
	var secs []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		// Start every set-up from a collected heap, so one set-up's
		// garbage (the campaign's 2 GiB truncate buffers) does not
		// change what the next one costs.
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(ctx, c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return inst, secs, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeCPU struct{ gcCPU, totalCPU float64 }

func readRuntime() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	return r
}

// heapSampler tracks the peak of heap object bytes (live objects plus
// garbage not yet swept), sampled every few milliseconds.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return v
		}
	}
}

// reset returns the peak since the last reset (sampling once more, so a
// pass shorter than the sampling interval still has one) and starts a
// new one.
func (h *heapSampler) reset() uint64 {
	h.sample()
	return h.peak.Swap(0)
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[min(i, len(s)-1)]
}

func removeQuietly(path string) { _ = os.RemoveAll(path) }
