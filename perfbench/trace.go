package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ballista"
	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/explore"
	"ballista/internal/farm"
	"ballista/internal/fleet"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
	"ballista/internal/suite"
	"ballista/internal/telemetry/span"
)

// firstRing sizes the first traced pass's span ring: the campaign at
// its benchmark cap records ~170k spans.  Later passes size theirs from
// the pass before, so a replay pass (~3k spans) does not allocate this.
const firstRing = 1 << 18

// tracer instruments one traced run.  It builds engines from the same
// constructors the facade uses, with timing wrappers around the suite
// fixture, every test-value constructor and every dispatched
// implementation, and a span recorder per pass.  The hooks passes call
// when an engine finishes (farmDone, storeDone, rendered, sweepsDone,
// fleetDone) are no-ops on a nil tracer, so untraced passes call them
// unconditionally.
type tracer struct {
	workers int
	reg     *core.Registry // the suite registry, constructors timed

	// rec and coordRec are the current pass's recorders.
	rec      *span.Recorder
	coordRec *span.Recorder
	// last holds the last pass's spans, written out when the run ends.
	last []span.Record

	// Wrapper totals, added from engine goroutines.
	fixtureNS, fixtureN     atomic.Int64
	constructNS, constructN atomic.Int64
	callNS, callN           [3]atomic.Int64 // indexed by apiIndex

	kmu sync.Mutex
	// kseen is keyed by the machine's address, not a pointer, so a
	// discarded machine (and a 2 GiB file a truncate case left on it) is
	// not kept alive.  A new machine at a reused address starts with
	// smaller counters, which the fixture wrapper detects.
	kseen  map[uintptr]kcount
	kdelta kcount
	kcases int64

	// Harvested after each pass on the measuring goroutine.
	passes                                                int
	caseNS, shardNS, chainNS, itemNS, crashNS, storeHitNS []float64
	caseSkips                                             int
	execNS, campaignNS, shardSumNS                        float64
	steals, quarantined, reboots                          int
	hits, misses                                          uint64
	renderNS                                              []float64
	fleet                                                 fleetAgg
	chains, corpus, exploreFindings                       int
	probes, scarceFindings, crashWorkloads, crashFindings int
	spanDrops                                             uint64
}

// kcount is the substrate activity a case causes.
type kcount struct{ procs, handles, pages, heap uint64 }

func snapKernel(k *kern.Kernel) kcount {
	s, m := k.Stats(), k.MemStats()
	return kcount{s.Processes, s.HandlesOpened, m.PagesMapped, m.Allocs}
}

func newTracer(nworkers int) *tracer {
	t := &tracer{workers: nworkers, kseen: make(map[uintptr]kcount)}
	t.reg = t.timedRegistry()
	return t
}

// registry returns the registry an engine gets: the facade builds a
// fresh suite registry for every engine it constructs (every runner, in
// the scarce sweep), so this builds one too and discards it, and hands
// out the one timed copy.  Copying and wrapping a registry per runner
// would charge the traced run work the untraced run never does.
func (t *tracer) registry() *core.Registry {
	_ = ballista.Registry()
	return t.reg
}

// timedRegistry copies the suite registry with every constructor timed.
func (t *tracer) timedRegistry() *core.Registry {
	base := ballista.Registry()
	out := core.NewRegistry()
	for _, name := range base.Names() {
		dt, _ := base.Lookup(name)
		w := &core.DataType{Name: dt.Name, Values: make([]core.TestValue, len(dt.Values))}
		for i, v := range dt.Values {
			mk := v.Make
			v.Make = func(e *core.Env) (api.Arg, error) {
				start := time.Now()
				a, err := mk(e)
				t.constructNS.Add(int64(time.Since(start)))
				t.constructN.Add(1)
				return a, err
			}
			w.Values[i] = v
		}
		out.MustAdd(w)
	}
	return out
}

func apiIndex(a catalog.API) int {
	switch a {
	case catalog.Win32:
		return 0
	case catalog.POSIX:
		return 1
	default:
		return 2
	}
}

// dispatch resolves a MuT through the facade and times each call.
func (t *tracer) dispatch(m catalog.MuT) (core.Impl, bool) {
	impl, ok := ballista.Dispatch(m)
	if !ok {
		return nil, false
	}
	i := apiIndex(m.API)
	return func(c *api.Call) {
		start := time.Now()
		impl(c)
		t.callNS[i].Add(int64(time.Since(start)))
		t.callN[i].Add(1)
	}, true
}

// fixture times suite.SetupFixtures and reads the machine's activity
// counters, so the counters' growth between two fixture calls on one
// machine is what one case (with its fixture) cost the substrate.
func (t *tracer) fixture(k *kern.Kernel) {
	now, key := snapKernel(k), uintptr(unsafe.Pointer(k))
	t.kmu.Lock()
	if prev, ok := t.kseen[key]; ok && now.procs >= prev.procs {
		t.kdelta.procs += now.procs - prev.procs
		t.kdelta.handles += now.handles - prev.handles
		t.kdelta.pages += now.pages - prev.pages
		t.kdelta.heap += now.heap - prev.heap
		t.kcases++
	}
	if len(t.kseen) >= 64 {
		// Machines are booted per shard; forget old ones.
		clear(t.kseen)
	}
	t.kseen[key] = now
	t.kmu.Unlock()
	start := time.Now()
	suite.SetupFixtures(k)
	t.fixtureNS.Add(int64(time.Since(start)))
	t.fixtureN.Add(1)
}

// runnerFactory is the runner factory the explore and scarce engines
// get: the facade's configuration with the instrumented pieces.  The
// runners share reg, or build one each when reg is nil, as the facade's
// scarce wiring does.
func (t *tracer) runnerFactory(reg *core.Registry, rec *span.Recorder) func(o osprofile.OS) *core.Runner {
	return func(o osprofile.OS) *core.Runner {
		r := reg
		if r == nil {
			r = t.registry()
		}
		return core.NewRunner(core.Config{OS: o, Cap: core.DefaultCap, StopMuTOnCrash: true, Spans: rec},
			r, t.dispatch, t.fixture)
	}
}

// fleetEnv is the facade's fleet worker wiring (farm kind) with the
// instrumented pieces and the pass's recorder.
func (t *tracer) fleetEnv() fleet.Env {
	return fleet.Env{
		NewShardExecutor: func(spec fleet.CampaignSpec) (fleet.ShardExecutor, error) {
			o, ok := osprofile.Parse(spec.OS)
			if !ok {
				return nil, fmt.Errorf("unknown OS %q in campaign spec", spec.OS)
			}
			cfg := core.Config{
				OS: o, Cap: spec.Cap, StopMuTOnCrash: true, Chaos: spec.Chaos,
				CaseDeadline: time.Duration(spec.CaseDeadlineMS) * time.Millisecond,
				Spans:        t.rec,
			}
			if cfg.Cap <= 0 {
				cfg.Cap = core.DefaultCap
			}
			return farm.NewExecutor(farm.Config{Config: cfg}, t.registry(), t.dispatch, t.fixture), nil
		},
	}
}

func (t *tracer) beginPass() {
	ring := firstRing
	if t.rec != nil {
		// Passes are deterministic: the last pass's count plus slack.
		seen := int(t.rec.Seen())
		ring = seen + seen/4 + 1024
	}
	t.rec = span.New(span.Options{Ring: ring})
	t.coordRec = span.New(span.Options{})
}

// endPass harvests the pass's spans.
func (t *tracer) endPass() {
	t.passes++
	recs := t.rec.Last(0)
	if seen := t.rec.Seen(); seen > uint64(len(recs)) {
		t.spanDrops += seen - uint64(len(recs))
	}
	shards := make(map[string]float64)
	var hitParents []string
	for _, r := range recs {
		d := float64(r.Dur)
		switch r.Phase {
		case "case":
			t.caseNS = append(t.caseNS, d)
			t.execNS += d
			if r.Detail == core.RawSkip.String() {
				t.caseSkips++
			}
		case "chain":
			t.chainNS = append(t.chainNS, d)
			t.execNS += d
		case "scarceitem":
			t.itemNS = append(t.itemNS, d)
			t.execNS += d
		case "crashwl":
			t.crashNS = append(t.crashNS, d)
		case "shard":
			t.shardNS = append(t.shardNS, d)
			t.shardSumNS += d
			shards[r.ID] = d
		case "campaign":
			t.campaignNS += d
		case "mut":
			if r.Detail == "store hit" {
				hitParents = append(hitParents, r.Parent)
			}
		}
	}
	for _, p := range hitParents {
		if d, ok := shards[p]; ok {
			t.storeHitNS = append(t.storeHitNS, d)
		}
	}
	t.last = append(recs, t.coordRec.Last(0)...)
}

func (t *tracer) farmDone(f *farm.Farm, res *ballista.Result) {
	if t == nil {
		return
	}
	t.steals += int(f.Steals())
	t.quarantined += len(f.Quarantined())
	t.reboots += res.Reboots
}

func (t *tracer) storeDone(hits, misses uint64) {
	if t == nil {
		return
	}
	t.hits += hits
	t.misses += misses
}

func (t *tracer) rendered(d time.Duration) {
	if t == nil {
		return
	}
	t.renderNS = append(t.renderNS, float64(d))
}

func (t *tracer) sweepsDone(es []*ballista.ExploreReport, s *ballista.ScarceReport, c *ballista.CrashReport) {
	if t == nil {
		return
	}
	for _, e := range es {
		t.chains += e.Executed
		t.corpus += e.CorpusSize
		t.exploreFindings += len(e.Divergences)
	}
	t.probes += s.Probes
	t.scarceFindings += len(s.Findings)
	t.crashWorkloads += c.Workloads
	t.crashFindings += len(c.Findings)
}

// fleetAgg accumulates the control plane's RPC timings across passes.
type fleetAgg struct {
	campaigns                       int
	joinMS, leaseMS, uploadMS, hbMS []float64
	rpcs, leases, emptyLeases       int
	uploadBytes                     int64
	idleMS, slotMS, tailMS          float64
}

// fleetDone folds one campaign's RPC record in.  A slot told to idle
// counts as idle from that lease until the hint runs out or the
// campaign completes, whichever is first.
func (t *tracer) fleetDone(tap *fleetTap, start, waited time.Time, slots int) {
	if t == nil {
		return
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	a := &t.fleet
	a.campaigns++
	a.joinMS = append(a.joinMS, tap.joinMS...)
	a.leaseMS = append(a.leaseMS, tap.leaseMS...)
	a.uploadMS = append(a.uploadMS, tap.uploadMS...)
	a.hbMS = append(a.hbMS, tap.hbMS...)
	a.rpcs += tap.rpcs
	a.leases += len(tap.leaseMS)
	a.emptyLeases += tap.emptyLeases
	a.uploadBytes += tap.uploadBytes
	for _, h := range tap.idle {
		a.idleMS += float64(min(h.hint, waited.Sub(h.at))) / 1e6
	}
	a.slotMS += float64(slots) * float64(waited.Sub(start)) / 1e6
	if !tap.lastUpload.IsZero() {
		a.tailMS += float64(waited.Sub(tap.lastUpload)) / 1e6
	}
}

// fleetTap wraps the coordinator's HTTP handler.  Untraced it only
// counts rejected uploads; traced it also times every RPC by endpoint
// and reads the lease responses.
type fleetTap struct {
	h      http.Handler
	traced bool

	mu                              sync.Mutex
	rejectedN                       int
	joinMS, leaseMS, uploadMS, hbMS []float64
	rpcs, emptyLeases               int
	idle                            []idleHint
	uploadBytes                     int64
	lastUpload                      time.Time
}

func (t *fleetTap) rejected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rejectedN
}

// idleHint is one lease response that told a slot to wait.
type idleHint struct {
	at   time.Time
	hint time.Duration
}

// tapWriter records the status and, for lease responses, the body.
type tapWriter struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (w *tapWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(p []byte) (int, error) {
	if w.body != nil {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (t *fleetTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if !t.traced && path != "/fleet/v1/upload" {
		t.h.ServeHTTP(w, r)
		return
	}
	tw := &tapWriter{ResponseWriter: w, status: http.StatusOK}
	if t.traced && path == "/fleet/v1/lease" {
		tw.body = new(bytes.Buffer)
	}
	start := time.Now()
	t.h.ServeHTTP(tw, r)
	end := time.Now()
	ms := float64(end.Sub(start)) / 1e6

	t.mu.Lock()
	defer t.mu.Unlock()
	if path == "/fleet/v1/upload" && tw.status >= 300 {
		t.rejectedN++
	}
	if !t.traced {
		return
	}
	t.rpcs++
	switch path {
	case "/fleet/v1/join":
		t.joinMS = append(t.joinMS, ms)
	case "/fleet/v1/lease":
		t.leaseMS = append(t.leaseMS, ms)
		var lr fleet.LeaseResponse
		if json.Unmarshal(tw.body.Bytes(), &lr) == nil && lr.Lease == nil {
			t.emptyLeases++
			if !lr.Done {
				t.idle = append(t.idle, idleHint{end, time.Duration(lr.WaitMS) * time.Millisecond})
			}
		}
	case "/fleet/v1/upload":
		t.uploadMS = append(t.uploadMS, ms)
		if r.ContentLength > 0 {
			t.uploadBytes += r.ContentLength
		}
		t.lastUpload = end
	case "/fleet/v1/heartbeat":
		t.hbMS = append(t.hbMS, ms)
	}
}

// runTraced is a traced run: one set-up, an untraced loop, then a
// traced loop whose outputs must equal the untraced loop's (the probes
// are pure observation), then the substrate microbenchmarks.  The two
// loops split c.seconds.
func runTraced(ctx context.Context, w workload, c config, tracePath string) (*result, error) {
	inst, err := w.setup(ctx, &c)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	runtime.GC()
	// The untraced and the traced loop share the run's measuring time.
	c.seconds /= 2
	chk := newChecker(&c)
	plain, err := measureLoop(ctx, inst, &c, nil, chk)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer(c.workers)
	traced, err := measureLoop(ctx, inst, &c, tr, chk)
	if err != nil {
		return nil, err
	}
	if tr.spanDrops > 0 {
		chk.problems = append(chk.problems, fmt.Sprintf("span ring overflowed: %d spans dropped", tr.spanDrops))
	}
	m := tr.layerMetrics(plain, traced, c.work)
	if err := writeSpans(tracePath, tr.last); err != nil {
		return nil, err
	}
	failed := plain.failed + traced.failed
	return &result{
		summary: summary{
			Attempted: plain.attempted + traced.attempted,
			Failed:    failed,
			Correct:   failed == 0 && len(chk.problems) == 0,
			Metrics:   m,
		},
		Problems: chk.problems,
		Passes:   append(plain.passSecs, traced.passSecs...),
	}, nil
}

// writeSpans writes the last traced pass's spans as JSON lines.
func writeSpans(path string, recs []span.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists every per-layer metric with its unit, in output order.
var perLayer = []struct{ name, unit string }{
	{"core.cases", "count"}, {"core.case_us_p50", "us"}, {"core.case_us_p99", "us"},
	{"core.self_us", "us"}, {"core.skip_share", "ratio"}, {"core.reboots", "count"},
	{"suite.fixture_us", "us"}, {"suite.fixture_share", "ratio"},
	{"suite.construct_us", "us"}, {"suite.construct_share", "ratio"},
	{"winapi.call_us", "us"}, {"posixapi.call_us", "us"}, {"clib.call_us", "us"}, {"dispatch.share", "ratio"},
	{"sim.mem.cstring_ns", "ns"}, {"sim.fs.lookup_ns", "ns"},
	{"sim.kern.processes_per_case", "count"}, {"sim.kern.handles_per_case", "count"},
	{"sim.mem.pages_per_case", "count"}, {"sim.mem.heap_allocs_per_case", "count"},
	{"farm.shards", "count"}, {"farm.steals", "count"}, {"farm.busy_share", "ratio"},
	{"farm.shard_ms_p50", "ms"}, {"farm.shard_ms_p99", "ms"}, {"farm.quarantined", "count"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.hit_ratio", "ratio"},
	{"store.hit_us", "us"}, {"report.render_ms", "ms"},
	{"fleet.join_ms", "ms"}, {"fleet.lease_ms_p50", "ms"}, {"fleet.lease_ms_p90", "ms"},
	{"fleet.upload_ms_p50", "ms"}, {"fleet.upload_ms_p90", "ms"}, {"fleet.heartbeat_ms", "ms"},
	{"fleet.rpcs", "count"}, {"fleet.lease_empty_ratio", "ratio"}, {"fleet.upload_kb", "KiB"},
	{"fleet.idle_share", "ratio"}, {"fleet.tail_ms", "ms"}, {"fleet.journal_append_us", "us"},
	{"explore.chains", "count"}, {"explore.chain_ms_p50", "ms"}, {"explore.coverage_ratio", "ratio"},
	{"explore.findings", "count"}, {"explore.fingerprint_us", "us"},
	{"scarce.probes", "count"}, {"scarce.item_ms_p50", "ms"}, {"scarce.findings", "count"},
	{"crashsim.workloads", "count"}, {"crashsim.eval_ms_p50", "ms"}, {"crashsim.findings", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_cpu_share", "ratio"}, {"bench.trace_overhead_share", "ratio"},
}

// layerMetrics computes every per-layer metric.  Counts are per pass;
// a layer the workload does not reach reads 0.
func (t *tracer) layerMetrics(plain, traced loopStats, work string) map[string]metric {
	v := make(map[string]float64)
	perPass := func(n float64) float64 { return n / float64(t.passes) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const us, ms = 1e3, 1e6

	fixtureNS, fixtureN := float64(t.fixtureNS.Load()), float64(t.fixtureN.Load())
	constructNS := float64(t.constructNS.Load())
	var callNS float64
	names := []string{"winapi.call_us", "posixapi.call_us", "clib.call_us"}
	for i := range t.callNS {
		n := float64(t.callNS[i].Load())
		callNS += n
		v[names[i]] = ratio(n, float64(t.callN[i].Load())) / us
	}

	v["core.cases"] = perPass(float64(len(t.caseNS)))
	v["core.case_us_p50"] = quantile(t.caseNS, 0.5) / us
	v["core.case_us_p99"] = quantile(t.caseNS, 0.99) / us
	v["core.self_us"] = ratio(t.execNS-fixtureNS-constructNS-callNS, fixtureN) / us
	v["core.skip_share"] = ratio(float64(t.caseSkips), float64(len(t.caseNS)))
	v["core.reboots"] = perPass(float64(t.reboots))
	v["suite.fixture_us"] = ratio(fixtureNS, fixtureN) / us
	v["suite.fixture_share"] = ratio(fixtureNS, t.execNS)
	v["suite.construct_us"] = ratio(constructNS, fixtureN) / us
	v["suite.construct_share"] = ratio(constructNS, t.execNS)
	v["dispatch.share"] = ratio(callNS, t.execNS)

	cstr, lookup, fp := substrateMicro()
	v["sim.mem.cstring_ns"] = cstr
	v["sim.fs.lookup_ns"] = lookup
	v["explore.fingerprint_us"] = fp / us
	kc := float64(t.kcases)
	v["sim.kern.processes_per_case"] = ratio(float64(t.kdelta.procs), kc)
	v["sim.kern.handles_per_case"] = ratio(float64(t.kdelta.handles), kc)
	v["sim.mem.pages_per_case"] = ratio(float64(t.kdelta.pages), kc)
	v["sim.mem.heap_allocs_per_case"] = ratio(float64(t.kdelta.heap), kc)

	v["farm.shards"] = perPass(float64(len(t.shardNS)))
	v["farm.steals"] = perPass(float64(t.steals))
	v["farm.busy_share"] = ratio(t.shardSumNS, float64(t.workers)*t.campaignNS)
	v["farm.shard_ms_p50"] = quantile(t.shardNS, 0.5) / ms
	v["farm.shard_ms_p99"] = quantile(t.shardNS, 0.99) / ms
	v["farm.quarantined"] = perPass(float64(t.quarantined))

	v["store.hits"] = perPass(float64(t.hits))
	v["store.misses"] = perPass(float64(t.misses))
	v["store.hit_ratio"] = ratio(float64(t.hits), float64(t.hits+t.misses))
	v["store.hit_us"] = quantile(t.storeHitNS, 0.5) / us
	v["report.render_ms"] = quantile(t.renderNS, 0.5) / ms

	a := &t.fleet
	fc := float64(max(a.campaigns, 1))
	v["fleet.join_ms"] = quantile(a.joinMS, 0.5)
	v["fleet.lease_ms_p50"] = quantile(a.leaseMS, 0.5)
	v["fleet.lease_ms_p90"] = quantile(a.leaseMS, 0.9)
	v["fleet.upload_ms_p50"] = quantile(a.uploadMS, 0.5)
	v["fleet.upload_ms_p90"] = quantile(a.uploadMS, 0.9)
	v["fleet.heartbeat_ms"] = quantile(a.hbMS, 0.5)
	v["fleet.rpcs"] = float64(a.rpcs) / fc
	v["fleet.lease_empty_ratio"] = ratio(float64(a.emptyLeases), float64(a.leases))
	v["fleet.upload_kb"] = float64(a.uploadBytes) / 1024 / fc
	v["fleet.idle_share"] = ratio(a.idleMS, a.slotMS)
	v["fleet.tail_ms"] = a.tailMS / fc
	v["fleet.journal_append_us"] = journalAppendNS(work) / us

	v["explore.chains"] = perPass(float64(t.chains))
	v["explore.chain_ms_p50"] = quantile(t.chainNS, 0.5) / ms
	v["explore.coverage_ratio"] = ratio(float64(t.corpus), float64(t.chains))
	v["explore.findings"] = perPass(float64(t.exploreFindings))
	v["scarce.probes"] = perPass(float64(t.probes))
	v["scarce.item_ms_p50"] = quantile(t.itemNS, 0.5) / ms
	v["scarce.findings"] = perPass(float64(t.scarceFindings))
	v["crashsim.workloads"] = perPass(float64(t.crashWorkloads))
	v["crashsim.eval_ms_p50"] = quantile(t.crashNS, 0.5) / ms
	v["crashsim.findings"] = perPass(float64(t.crashFindings))

	v["go.gc_cycles"] = perPass(float64(traced.gcCycles))
	v["go.gc_cpu_share"] = ratio(traced.gcCPU, traced.totalCPU)
	v["bench.trace_overhead_share"] = 1 - ratio(traced.rate(), plain.rate())

	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		out[p.name] = metric{v[p.name], p.unit}
	}
	return out
}

// substrateMicro times the substrate calls the case path leans on,
// directly and on a machine of its own: CString over the suite's
// valid string values, Stat over the fixture paths, and the explore
// engine's kernel fingerprint.  Each returns nanoseconds per call.
func substrateMicro() (cstringNS, lookupNS, fingerprintNS float64) {
	prof := ballista.Profile(ballista.WinNT)
	k := prof.NewKernel()
	suite.SetupFixtures(k)
	env := &core.Env{K: k, P: k.NewProcess(), Profile: prof}
	defer env.Cleanup()
	reg := ballista.Registry()
	var addrs []mem.Addr
	for _, name := range []string{"CSTRING", "LPCSTR", "PATH", "LPPATH"} {
		dt, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		for _, tv := range dt.Values {
			if tv.Exceptional {
				continue
			}
			if a, err := tv.Make(env); err == nil && a.Kind == api.ArgPtr {
				addrs = append(addrs, mem.Addr(uint32(a.I)))
			}
		}
	}
	paths := []string{
		suite.FixtureDir, suite.FixtureReadable, suite.FixtureWritable, suite.FixtureReadOnly,
		suite.FixtureSubdir, suite.FixtureSubdir + "/a.txt", suite.FixtureExec, suite.ScratchDir, suite.TempDir,
	}
	as := env.P.AS
	cstringNS = nsPerOp(len(addrs), func() {
		for _, a := range addrs {
			_, _ = as.CString(a)
		}
	})
	lookupNS = nsPerOp(len(paths), func() {
		for _, p := range paths {
			_, _ = k.FS.Stat(p)
		}
	})
	fingerprintNS = nsPerOp(1, func() { _ = explore.KernelFingerprint(k) })
	return cstringNS, lookupNS, fingerprintNS
}

// journalAppendNS is the median time of one fsync'd append of a shard
// result to a lease journal in dir, over journalAppends appends: what
// the coordinator pays per upload when it runs with a journal.  It
// returns 0 if the journal cannot be written.
func journalAppendNS(dir string) float64 {
	path := filepath.Join(dir, "journal-micro.jsonl")
	defer removeQuietly(path)
	j, err := farm.OpenJournal(path, "fleet")
	if err != nil {
		return 0
	}
	defer j.Close()
	desc := farm.ShardDescs(ballista.WinNT)[0]
	res := farm.ShardResult{
		Classes:     core.PackClasses(make([]core.RawClass, fleetCap)),
		Exceptional: core.PackFlags(make([]bool, fleetCap)),
	}
	var per []float64
	for i := 0; i < journalAppends; i++ {
		start := time.Now()
		if err := j.Append(ballista.WinNT.WireName(), fleetCap, desc, res, 0, false); err != nil {
			return 0
		}
		per = append(per, float64(time.Since(start)))
	}
	return median(per)
}

const journalAppends = 50

// nsPerOp is the median over nine batches of fn's time per op, each
// batch repeating fn for at least a millisecond.
func nsPerOp(ops int, fn func()) float64 {
	if ops == 0 {
		return 0
	}
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(start) >= time.Millisecond {
			break
		}
		reps *= 2
	}
	var per []float64
	for b := 0; b < 9; b++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(reps*ops))
	}
	return median(per)
}
