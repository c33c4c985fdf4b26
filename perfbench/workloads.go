package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"ballista"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/crashsim"
	"ballista/internal/explore"
	"ballista/internal/farm"
	"ballista/internal/fleet"
	"ballista/internal/report"
	"ballista/internal/scarce"
)

// workloads lists the benchmark's inputs; the package documentation and
// BENCHMARK.json say why each exists.  Every one is a closed loop: one
// caller submits a batch and waits for it before the next.
var workloads = []workload{
	{name: "campaign", unit: "executed case", setup: setupCampaign},
	{name: "replay", unit: "case served from the store", setup: setupReplay},
	{name: "fleet", unit: "case in the merged result", setup: setupFleet},
	{name: "sweeps", unit: "chain, scarcity probe or crash workload", setup: setupSweeps},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Output digest keys in digests.json name the artifact and the sizes
// that determine it.
func campaignKey(artifact string, cap int) string {
	return fmt.Sprintf("campaign.%s@cap=%d", artifact, cap)
}

func sweepKey(engine string, c *config) string {
	switch engine {
	case "explore":
		return fmt.Sprintf("explore.json@seed=%d,runs=%d,budget=%d", c.seed, c.exploreRuns, c.exploreBudget)
	default:
		return fmt.Sprintf("crash.json@seed=%d,maxops=%d,budget=%d", c.seed, c.crashMaxOps, c.crashBudget)
	}
}

// wantDigest returns the committed digest for key.  A configuration
// that must have one but does not gets a digest no output can match,
// so the omission fails the run instead of skipping the check.
func wantDigest(c *config, key string) string {
	if d, ok := c.digests[key]; ok {
		return d
	}
	return "missing committed digest for " + key
}

// newFarm builds one profile's farm, through the facade when untraced
// and from the instrumented pieces when traced.
func newFarm(o ballista.OS, cap, nworkers int, st *ballista.ResultStore, tr *tracer) *farm.Farm {
	if tr == nil {
		opts := []ballista.Option{ballista.WithCap(cap)}
		if st != nil {
			opts = append(opts, ballista.WithStore(st))
		}
		return ballista.NewFarm(o, ballista.FarmConfig{Workers: nworkers}, opts...)
	}
	cfg := core.Config{OS: o, Cap: cap, StopMuTOnCrash: true, Spans: tr.rec, Store: st}
	return farm.New(farm.Config{Config: cfg, Workers: nworkers}, tr.registry(), tr.dispatch, tr.fixture)
}

// runCampaign runs every profile through a farm and returns the merged
// results, with the units run, the units the farms lost to harness
// faults and each farm's time in a pass result.
func runCampaign(ctx context.Context, c *config, cap int, st *ballista.ResultStore, tr *tracer) (map[ballista.OS]*ballista.Result, passResult, error) {
	results := make(map[ballista.OS]*ballista.Result, 7)
	var pr passResult
	for _, o := range ballista.AllOSes() {
		start := time.Now()
		f := newFarm(o, cap, c.workers, st, tr)
		res, err := f.Run(ctx)
		if err != nil {
			return nil, pr, fmt.Errorf("%s campaign: %w", o, err)
		}
		pr.segments = append(pr.segments, segment{"farm/" + o.WireName(), time.Since(start).Seconds()})
		results[o] = res
		pr.units += res.CasesRun
		pr.failed += len(f.Quarantined()) + harnessIncomplete(res)
		tr.farmDone(f, res)
	}
	return results, pr, nil
}

// harnessIncomplete counts shards the farm gave up on after repeated
// harness faults: incomplete with no case run.  A shard stopped by a
// Catastrophic case is the paper's behaviour, not a failure.
func harnessIncomplete(res *ballista.Result) int {
	n := 0
	for _, m := range res.Results {
		if m.Incomplete && len(m.Cases) == 0 {
			n++
		}
	}
	return n
}

// renderReport renders the paper's exhibits and the per-MuT CSV.
func renderReport(results map[ballista.OS]*ballista.Result, pr *passResult, tr *tracer) (csv, text []byte, err error) {
	start := time.Now()
	var b bytes.Buffer
	for _, s := range []string{
		ballista.Table1(results), ballista.Table2(results), ballista.Figure1(results),
		ballista.Table3(results), ballista.Figure2(results),
	} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	var cb bytes.Buffer
	if err := report.WriteMuTCSV(&cb, results); err != nil {
		return nil, nil, fmt.Errorf("writing the per-MuT CSV: %w", err)
	}
	d := time.Since(start)
	pr.segments = append(pr.segments, segment{"report", d.Seconds()})
	tr.rendered(d)
	return cb.Bytes(), b.Bytes(), nil
}

func campaignOutputs(c *config, csv, text []byte) []output {
	return []output{
		{name: "campaign.csv", data: csv, want: wantDigest(c, campaignKey("csv", c.cap))},
		{name: "campaign.report", data: text, want: wantDigest(c, campaignKey("report", c.cap))},
	}
}

// campaign: the cold seven-profile reproduction.

type campaignInst struct{ c *config }

// setupCampaign warms the process up with one small campaign, so the
// measured passes do not pay first-use costs a long campaign amortizes.
func setupCampaign(ctx context.Context, c *config) (instance, error) {
	results, pr, err := runCampaign(ctx, c, warmCap, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := renderReport(results, &pr, nil); err != nil {
		return nil, err
	}
	return &campaignInst{c: c}, nil
}

// warmCap sizes the campaign warm-up.
const warmCap = 10

func (w *campaignInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	results, pr, err := runCampaign(ctx, w.c, w.c.cap, nil, tr)
	if err != nil {
		return passResult{}, err
	}
	csv, text, err := renderReport(results, &pr, tr)
	if err != nil {
		return passResult{}, err
	}
	pr.outputs = campaignOutputs(w.c, csv, text)
	return pr, nil
}

func (w *campaignInst) close() {}

// replay: the campaign served from a store filled at set-up.

type replayInst struct {
	c    *config
	st   *ballista.ResultStore
	path string
}

// setupReplay opens a store backed by an fsync'd segment file and fills
// it with one cold campaign pass.
func setupReplay(ctx context.Context, c *config) (instance, error) {
	f, err := os.CreateTemp(c.work, "store-*.seg")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	_ = f.Close() // OpenStore reopens it for appending
	st, err := ballista.OpenStore(ballista.StoreOptions{Path: path})
	if err != nil {
		removeQuietly(path)
		return nil, fmt.Errorf("opening the result store: %w", err)
	}
	w := &replayInst{c: c, st: st, path: path}
	if _, _, err := runCampaign(ctx, c, c.cap, st, nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *replayInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	before := w.st.Snapshot()
	results, pr, err := runCampaign(ctx, w.c, w.c.cap, w.st, tr)
	if err != nil {
		return passResult{}, err
	}
	after := w.st.Snapshot()
	tr.storeDone(after.Hits-before.Hits, after.Misses-before.Misses)
	csv, text, err := renderReport(results, &pr, tr)
	if err != nil {
		return passResult{}, err
	}
	pr.outputs = campaignOutputs(w.c, csv, text)
	if miss := after.Misses - before.Misses; miss != 0 {
		// A miss executed a shard instead of serving it: the pass did
		// not measure what it claims, so none of its units count.
		pr.failed = pr.units
		pr.problems = append(pr.problems, fmt.Sprintf("replay pass had %d store misses", miss))
	}
	return pr, nil
}

func (w *replayInst) close() {
	_ = w.st.Close()
	removeQuietly(w.path)
}

// fleet: one WinNT campaign over HTTP loopback.

type fleetInst struct {
	c   *config
	ref string // digest of the in-process 1-worker campaign's CSV
}

// setupFleet computes the reference the fleet's merged CSV must equal:
// the same campaign run in process by a 1-worker farm.
func setupFleet(ctx context.Context, c *config) (instance, error) {
	res, err := ballista.RunFarm(ctx, ballista.WinNT, ballista.FarmConfig{Workers: 1}, ballista.WithCap(c.fleetCap))
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	csv, err := osCSV(ballista.WinNT, res)
	if err != nil {
		return nil, err
	}
	return &fleetInst{c: c, ref: digest(csv)}, nil
}

func osCSV(o ballista.OS, res *ballista.Result) ([]byte, error) {
	var b bytes.Buffer
	if err := report.WriteMuTCSV(&b, map[ballista.OS]*ballista.Result{o: res}); err != nil {
		return nil, fmt.Errorf("writing the per-MuT CSV: %w", err)
	}
	return b.Bytes(), nil
}

func (w *fleetInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	start := time.Now()
	// No lease journal: its fsync per upload, serialized behind the
	// coordinator, doubled the pass time for minutes at a time whenever
	// the host's disk was busy.  The traced run times a journal append
	// on its own (fleet.journal_append_us).
	cfg := fleet.Config{
		Spec: fleet.CampaignSpec{Kind: fleet.KindFarm, OS: ballista.WinNT.WireName(), Cap: w.c.fleetCap},
	}
	if tr != nil {
		cfg.Spans = tr.coordRec
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		return passResult{}, fmt.Errorf("fleet coordinator: %w", err)
	}
	defer coord.Close()
	tap := &fleetTap{h: coord.Handler(), traced: tr != nil}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, fmt.Errorf("loopback listener: %w", err)
	}
	srv := &http.Server{Handler: tap}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-served
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	wcfg := fleet.WorkerConfig{
		Client: fleet.ClientConfig{BaseURL: "http://" + ln.Addr().String()},
		Name:   "bench", Slots: w.c.workers, Env: ballista.FleetEnv(),
	}
	if tr != nil {
		wcfg.Env = tr.fleetEnv()
		wcfg.Spans = tr.rec
	}
	werr := make(chan error, 1)
	go func() {
		err := fleet.RunWorker(wctx, wcfg)
		if err != nil {
			cancel() // a failed worker must not leave Wait blocked
		}
		werr <- err
	}()

	// The merged result is the user's: the pass ends when Wait returns.
	// The worker is then stopped rather than left to exit on its own:
	// a slot told to idle for Heartbeat/2 would hold it 2.5 s longer in
	// about half the campaigns and make the pass time bimodal.
	res, err := coord.Wait(wctx)
	waited := time.Now()
	cancel()
	workerErr := <-werr
	tr.fleetDone(tap, start, waited, w.c.workers)
	if err != nil {
		return passResult{}, fmt.Errorf("fleet campaign: %w (worker: %v)", err, workerErr)
	}
	if workerErr != nil && !errors.Is(workerErr, context.Canceled) {
		return passResult{}, fmt.Errorf("fleet worker: %w", workerErr)
	}
	csv, err := osCSV(ballista.WinNT, res)
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		segments: []segment{{"campaign", waited.Sub(start).Seconds()}},
		units:    res.CasesRun,
		failed:   tap.rejected(),
		outputs:  []output{{name: "fleet.csv", data: csv, want: w.ref}},
	}, nil
}

func (w *fleetInst) close() {}

// sweeps: explore, scarce and crash sweeps from the workload seed.

type sweepsInst struct {
	c                        *config
	explore, scarceW, crashW string
}

// setupSweeps warms each engine up on a small budget and resolves the
// digests the full sweeps must reproduce.
func setupSweeps(ctx context.Context, c *config) (instance, error) {
	warm := *c
	warm.exploreRuns, warm.exploreBudget, warm.scarceBudget, warm.crashBudget = 1, 64, 4, 32
	if _, err := runSweeps(ctx, &warm, nil); err != nil {
		return nil, err
	}
	// Only seed 7 has committed reports; at other seeds every pass must
	// equal the first.
	s := &sweepsInst{c: c, explore: c.digests[sweepKey("explore", c)], crashW: c.digests[sweepKey("crash", c)]}
	if c.seed == 7 && c.scarceBudget == 0 {
		s.scarceW = digest(c.scarceGolden)
	}
	return s, nil
}

func (w *sweepsInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	pr, err := runSweeps(ctx, w.c, tr)
	if err != nil {
		return passResult{}, err
	}
	pr.outputs[0].want, pr.outputs[1].want, pr.outputs[2].want = w.explore, w.scarceW, w.crashW
	return pr, nil
}

func (w *sweepsInst) close() {}

// runSweeps runs the three engines and returns the evaluations done,
// each engine's time, and the three reports as the goldens store them
// (indented JSON, newline).
func runSweeps(ctx context.Context, c *config, tr *tracer) (passResult, error) {
	var pr passResult
	timed := func(name string, run func() error) error {
		start := time.Now()
		err := run()
		pr.segments = append(pr.segments, segment{name, time.Since(start).Seconds()})
		return err
	}

	// Campaign k of a pass runs from seed*exploreRuns+k, so passes and
	// seeds never share a trajectory.
	ereps := make([]*ballista.ExploreReport, c.exploreRuns)
	err := timed("explore", func() error {
		for k := range ereps {
			ecfg := ballista.ExploreConfig{
				Primary: ballista.WinNT, OSes: ballista.AllOSes(),
				Seed:   c.seed*uint64(c.exploreRuns) + uint64(k),
				Budget: c.exploreBudget, Workers: c.workers,
			}
			var err error
			if tr == nil {
				ereps[k], err = ballista.Explore(ctx, ecfg)
			} else {
				ecfg.Spans = tr.rec
				reg := tr.registry()
				var f *explore.Fuzzer
				if f, err = explore.New(ecfg, reg, tr.runnerFactory(reg, tr.rec)); err == nil {
					ereps[k], err = f.Run(ctx)
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return pr, fmt.Errorf("explore: %w", err)
	}

	var srep *ballista.ScarceReport
	err = timed("scarce", func() (err error) {
		scfg := ballista.ScarceConfig{Seed: c.seed, Budget: c.scarceBudget, Workers: c.workers}
		if tr == nil {
			srep, err = ballista.ScarceSweep(ctx, scfg)
			return err
		}
		scfg.Spans = tr.rec
		scfg.Deps = &scarce.Deps{NewRunner: tr.runnerFactory(nil, nil), MuTs: catalog.MuTsFor, Registry: tr.registry()}
		srep, err = scarce.Sweep(ctx, scfg)
		return err
	})
	if err != nil {
		return pr, fmt.Errorf("scarce sweep: %w", err)
	}

	var crep *ballista.CrashReport
	err = timed("crash", func() (err error) {
		ccfg := ballista.CrashConfig{Seed: c.seed, MaxOps: c.crashMaxOps, Budget: c.crashBudget, Workers: c.workers}
		if tr == nil {
			crep, err = ballista.CrashSweep(ctx, ccfg)
			return err
		}
		ccfg.Spans = tr.rec
		crep, err = crashsim.Sweep(ctx, ccfg)
		return err
	})
	if err != nil {
		return pr, fmt.Errorf("crash sweep: %w", err)
	}
	tr.sweepsDone(ereps, srep, crep)

	// The explore output is the campaigns' reports in order, each as the
	// goldens store a report.
	var explored []byte
	for _, e := range ereps {
		data, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return pr, fmt.Errorf("encoding explore.json: %w", err)
		}
		explored = append(append(explored, data...), '\n')
		pr.units += e.Executed
	}
	pr.outputs = append(pr.outputs, output{name: "explore.json", data: explored})
	for _, r := range []struct {
		name string
		v    any
	}{{"scarce.json", srep}, {"crash.json", crep}} {
		data, err := json.MarshalIndent(r.v, "", "  ")
		if err != nil {
			return pr, fmt.Errorf("encoding %s: %w", r.name, err)
		}
		pr.outputs = append(pr.outputs, output{name: r.name, data: append(data, '\n')})
	}
	pr.units += srep.Probes + crep.Workloads
	return pr, nil
}
