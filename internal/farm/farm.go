// Package farm schedules one OS variant's campaign across a pool of
// parallel workers — the software analogue of the paper's bank of six
// physical Windows test machines grinding through >2M cases for days.
// Each worker owns its own simulated machine (kern.Kernel), the catalog
// is sharded one MuT campaign per shard, and idle workers steal work
// from busy ones, so a full sweep uses every core instead of one.
//
// Two properties the paper's hardware could not offer:
//
//   - Determinism: every shard starts on a freshly booted kernel, so the
//     merged OSResult is identical for any worker count and any steal
//     schedule — results land in stable catalog order and per-shard
//     reboot counts are summed.  Case generation is already seeded by
//     MuT name alone, so a shard's outcome depends only on the shard.
//   - Checkpoint/resume: with a journal configured, every completed
//     shard is appended to a JSONL checkpoint.  A campaign killed
//     mid-run (ballistad shutdown, operator Ctrl-C, the simulated
//     equivalent of the paper's "system crash interrupts the testing
//     process") resumes without re-running finished shards.
package farm

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sweep"
)

// Config configures a parallel campaign.  The embedded core.Config is
// applied to every worker's runner; its Observer, if any, is shared by
// all workers and must therefore be safe for concurrent use (the stock
// internal/telemetry observers are).
type Config struct {
	core.Config
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Checkpoint is the JSONL journal path; empty disables checkpointing.
	Checkpoint string
}

// Farm runs sharded campaigns for one OS variant.
type Farm struct {
	cfg      Config
	reg      *core.Registry
	dispatch core.Dispatcher
	fixture  core.Fixture
	profile  *osprofile.Profile

	// Steals counts shards executed off another worker's partition in
	// the most recent Run (telemetry, reset per run).
	steals atomic.Uint64

	// spanParent is the most recent Run's campaign span, the parent
	// every shard span links under (written once before workers start).
	spanParent uint64

	// quarantined records shards whose execution faulted in the harness
	// (worker panic) during the most recent Run; guarded by qmu.
	qmu         sync.Mutex
	quarantined []Quarantine
}

// Quarantine records one harness fault: a shard whose worker panicked.
// The shard is re-enqueued (up to sweep.MaxAttempts), so a quarantine is
// an incident report, not a lost result.
type Quarantine struct {
	Shard   int    `json:"shard"`
	MuT     string `json:"mut"`
	Wide    bool   `json:"wide,omitempty"`
	Worker  int    `json:"worker"`
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

// shard is one unit of scheduling: a wire descriptor plus its resolved
// catalog entry.
type shard struct {
	desc ShardDesc
	m    catalog.MuT
}

// New assembles a farm from the same pieces core.NewRunner takes.
func New(cfg Config, reg *core.Registry, dispatch core.Dispatcher, fixture core.Fixture) *Farm {
	if cfg.Cap <= 0 {
		cfg.Cap = core.DefaultCap
	}
	profile := cfg.Profile
	if profile == nil {
		profile = osprofile.Get(cfg.OS)
	}
	return &Farm{cfg: cfg, reg: reg, dispatch: dispatch, fixture: fixture, profile: profile}
}

// Steals reports how many shards the most recent Run executed on a
// worker other than the one they were partitioned to.
func (f *Farm) Steals() uint64 { return f.steals.Load() }

// Quarantined reports the harness faults isolated during the most
// recent Run, in the order they occurred.
func (f *Farm) Quarantined() []Quarantine {
	f.qmu.Lock()
	defer f.qmu.Unlock()
	return append([]Quarantine(nil), f.quarantined...)
}

// shards lists the campaign's schedule in the exact order a sequential
// Runner.RunAll visits it (see ShardDescs), with each descriptor's MuT
// resolved against the catalog.
func (f *Farm) shards() []shard {
	descs := shardDescs(f.cfg.OS, f.profile)
	index := make(map[string]catalog.MuT)
	for _, m := range catalog.MuTsFor(f.cfg.OS) {
		index[m.Name] = m
	}
	out := make([]shard, len(descs))
	for i, d := range descs {
		out[i] = shard{desc: d, m: index[d.MuT]}
	}
	return out
}

// Run executes the sharded campaign and merges per-worker results into
// an OSResult identical to a sequential Runner.RunAll: results in stable
// catalog order, CasesRun summed over executed cases, Reboots summed
// over per-shard reboot epochs.  Cancelling ctx stops every worker at
// its next test-case boundary; with a checkpoint configured the
// campaign is resumable from the journal.
func (f *Farm) Run(ctx context.Context) (*core.OSResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	f.steals.Store(0)
	f.qmu.Lock()
	f.quarantined = nil
	f.qmu.Unlock()

	// Harness-domain fault session (journal tears, worker panics),
	// shared across workers; substrate faults get their own session per
	// machine boot inside each worker's runner.
	var hinj *chaos.Injector
	if f.cfg.Chaos != nil {
		hinj = f.cfg.Chaos.NewInjector(f.cfg.ChaosStats)
		hinj.SetSpans(f.cfg.Spans)
	}

	cs := f.cfg.Spans.Start("campaign", f.cfg.OS.WireName())
	defer cs.End()
	f.spanParent = cs.ID()

	sh := f.shards()
	results := make([]*core.MuTResult, len(sh))
	rebootsBy := make([]int, len(sh))

	// Resume: restore finished shards from the journal, then keep it
	// open for appending this run's completions.
	var jnl *Journal
	if f.cfg.Checkpoint != "" {
		descs := make([]ShardDesc, len(sh))
		for i, s := range sh {
			descs[i] = s.desc
		}
		done, err := LoadJournal(f.cfg.Checkpoint, f.cfg.OS.WireName(), f.cfg.Cap, descs)
		if err != nil {
			return nil, err
		}
		for idx, sr := range done {
			res, err := sr.Decode(f.cfg.OS, sh[idx].desc)
			if err != nil {
				return nil, err
			}
			results[idx] = res
			rebootsBy[idx] = sr.Reboots
		}
		jnl, err = OpenJournal(f.cfg.Checkpoint, "farm")
		if err != nil {
			return nil, err
		}
		jnl.SetChaos(hinj, f.cfg.ChaosStats)
		defer jnl.Close()
	}

	var pending []int
	for _, s := range sh {
		if results[s.desc.Index] == nil {
			pending = append(pending, s.desc.Index)
		}
	}

	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := f.runWorkers(ctx, workers, pending, sh, results, rebootsBy, jnl, hinj); err != nil {
		return nil, err
	}

	out := &core.OSResult{OS: f.profile.Name}
	for _, res := range results {
		out.Results = append(out.Results, res)
		out.CasesRun += res.Executed()
	}
	for _, n := range rebootsBy {
		out.Reboots += n
	}
	if f.cfg.Observer != nil {
		f.cfg.Observer.OnCampaignDone(core.CampaignEvent{
			OS: f.cfg.OS.WireName(), MuTs: len(out.Results),
			CasesRun: out.CasesRun, Reboots: out.Reboots, Wall: time.Since(start),
		})
	}
	return out, nil
}

// runWorkers executes the pending shards across a sweep pool: each
// worker owns a contiguous slice of the catalog, like one physical
// machine owning one stack of test sheets, and stealing rebalances when
// the slices prove uneven.  A shard whose execution panics (harness
// fault, injected or real) is quarantined and re-enqueued, and its
// worker continues on a fresh runner.
func (f *Farm) runWorkers(ctx context.Context, workers int, pending []int,
	sh []shard, results []*core.MuTResult, rebootsBy []int, jnl *Journal, hinj *chaos.Injector) error {
	shardObs, _ := f.cfg.Observer.(core.ShardObserver)
	pool := sweep.Pool{
		Workers: workers,
		Worker: func(id int) sweep.EvalFunc {
			runner := core.NewRunner(f.cfg.Config, f.reg, f.dispatch, f.fixture)
			return func(ctx context.Context, idx int, stolen bool) error {
				// Injected harness fault: a worker panic just before the
				// shard runs, recovered by the same isolation path as a
				// real one.
				if _, ok := hinj.Fault(chaos.OpWorkerPanic, sh[idx].m.Name); ok {
					panic("chaos: injected worker panic")
				}
				return f.runShard(ctx, runner, id, sh[idx], stolen, results, rebootsBy, jnl, shardObs)
			}
		},
		OnPanic: func(flt sweep.Fault) {
			s := sh[flt.Unit]
			f.qmu.Lock()
			f.quarantined = append(f.quarantined, Quarantine{
				Shard: s.desc.Index, MuT: s.m.Name, Wide: s.desc.Wide,
				Worker: flt.Worker, Attempt: flt.Attempt, Reason: flt.Reason,
			})
			f.qmu.Unlock()
			f.cfg.ChaosStats.AddQuarantined()
			f.cfg.Spans.Instant("quarantine", s.m.Name, flt.Reason)
			_, _ = f.cfg.Spans.Dump("quarantine")
		},
		GiveUp: func(flt sweep.Fault) error {
			// Persistent harness fault: surface the shard as Incomplete
			// rather than retrying forever.  Left out of the journal so a
			// later resume re-attempts it.
			s := sh[flt.Unit]
			results[flt.Unit] = &core.MuTResult{MuT: s.m, Wide: s.desc.Wide, Incomplete: true}
			rebootsBy[flt.Unit] = 0
			return nil
		},
	}
	steals, err := pool.Run(ctx, pending)
	f.steals.Store(steals)
	return err
}

// runShard executes one shard on a freshly booted machine, records the
// result, and journals it.
func (f *Farm) runShard(ctx context.Context, runner *core.Runner, id int, s shard, stolen bool,
	results []*core.MuTResult, rebootsBy []int, jnl *Journal, shardObs core.ShardObserver) error {
	start := time.Now()
	ss := f.cfg.Spans.Start("shard", s.m.Name).
		SetParent(f.spanParent).SetOS(f.cfg.OS.WireName()).SetWorker(strconv.Itoa(id))
	runner.SetSpanParent(ss.ID())
	res, err := runner.RunMuT(ctx, s.m, s.desc.Wide)
	if err != nil {
		ss.SetDetail("error").End()
		return err
	}
	reboots := runner.ResetMachine()
	ss.End()
	results[s.desc.Index] = res
	rebootsBy[s.desc.Index] = reboots

	if jnl != nil {
		err := jnl.Append(f.cfg.OS.WireName(), f.cfg.Cap, s.desc, EncodeShardResult(res, reboots), id, stolen)
		if err != nil {
			return fmt.Errorf("farm: checkpointing shard %d: %w", s.desc.Index, err)
		}
	}
	if shardObs != nil {
		shardObs.OnShardDone(core.ShardEvent{
			OS: f.cfg.OS.WireName(), Worker: id, Shard: s.desc.Index,
			MuT: s.m.Name, Wide: s.desc.Wide,
			Cases: res.Executed(), Reboots: reboots,
			Stolen: stolen, Wall: time.Since(start),
		})
	}
	return nil
}
