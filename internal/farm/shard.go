package farm

import (
	"context"
	"fmt"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
)

// ShardDesc identifies one unit of campaign scheduling in wire form: a
// full (MuT, wide) campaign at its position in the stable catalog order
// a sequential Runner.RunAll visits.  The farm schedules these across a
// worker pool in-process; the fleet coordinator leases the exact same
// descriptors to worker processes over HTTP, so a shard's identity — and
// therefore its outcome — is the same no matter where it runs.
type ShardDesc struct {
	Index int    `json:"shard"`
	MuT   string `json:"mut"`
	Wide  bool   `json:"wide,omitempty"`
}

// ShardDescs lists one OS variant's campaign schedule: each supported
// MuT, with the UNICODE variant immediately after its narrow twin where
// the OS prefers wide.
func ShardDescs(o osprofile.OS) []ShardDesc {
	return shardDescs(o, osprofile.Get(o))
}

func shardDescs(o osprofile.OS, profile *osprofile.Profile) []ShardDesc {
	var out []ShardDesc
	for _, m := range catalog.MuTsFor(o) {
		out = append(out, ShardDesc{Index: len(out), MuT: m.Name})
		if profile.Traits.WidePreferred && m.HasWide {
			out = append(out, ShardDesc{Index: len(out), MuT: m.Name, Wide: true})
		}
	}
	return out
}

// ShardResult is a completed shard's outcome in wire/journal form.
// Classes and Exceptional pack one character per test case ('0'-'5'
// CRASH class digits, '0'/'1' flags) so a 5000-case shard is one short
// line, not 5000 JSON numbers — the same packing the checkpoint journal
// has always used.
type ShardResult struct {
	Classes     string `json:"classes"`
	Exceptional string `json:"exceptional"`
	Incomplete  bool   `json:"incomplete,omitempty"`
	Reboots     int    `json:"reboots,omitempty"`
}

// EncodeShardResult packs one MuT campaign outcome and the reboot count
// of its machine epoch.
func EncodeShardResult(res *core.MuTResult, reboots int) ShardResult {
	return ShardResult{
		Classes:     core.PackClasses(res.Cases),
		Exceptional: core.PackFlags(res.Exceptional),
		Incomplete:  res.Incomplete,
		Reboots:     reboots,
	}
}

// Decode unpacks the result against its descriptor, resolving the MuT
// from o's catalog and validating the packed strings.
func (sr ShardResult) Decode(o osprofile.OS, d ShardDesc) (*core.MuTResult, error) {
	m, ok := mutByName(o, d.MuT)
	if !ok {
		return nil, fmt.Errorf("farm: shard %d: %q is not tested on %s", d.Index, d.MuT, o)
	}
	classes, err := core.UnpackClasses(sr.Classes)
	if err != nil {
		return nil, fmt.Errorf("farm: shard %d: %w", d.Index, err)
	}
	if len(sr.Exceptional) != len(sr.Classes) {
		return nil, fmt.Errorf("farm: shard %d has %d classes but %d exceptional flags",
			d.Index, len(sr.Classes), len(sr.Exceptional))
	}
	return &core.MuTResult{
		MuT:         m,
		Wide:        d.Wide,
		Cases:       classes,
		Exceptional: core.UnpackFlags(sr.Exceptional),
		Incomplete:  sr.Incomplete,
	}, nil
}

func mutByName(o osprofile.OS, name string) (catalog.MuT, bool) {
	for _, m := range catalog.MuTsFor(o) {
		if m.Name == name {
			return m, true
		}
	}
	return catalog.MuT{}, false
}

// MergeShardResults reassembles the deterministic OSResult a farm (or
// sequential) campaign produces from per-shard wire results, in shard
// order: results in stable catalog order, CasesRun summed over executed
// cases, Reboots summed over per-shard reboot epochs.  results must hold
// one entry per descriptor.
func MergeShardResults(o osprofile.OS, descs []ShardDesc, results []ShardResult) (*core.OSResult, error) {
	if len(descs) != len(results) {
		return nil, fmt.Errorf("farm: merging %d results against %d shards", len(results), len(descs))
	}
	out := &core.OSResult{OS: osprofile.Get(o).Name}
	for i, d := range descs {
		mr, err := results[i].Decode(o, d)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, mr)
		out.CasesRun += mr.Executed()
		out.Reboots += results[i].Reboots
	}
	return out, nil
}

// Executor runs shard descriptors on demand — the execution engine a
// fleet worker wraps around the same pieces a Farm is built from.  It
// owns one runner whose machine is reset between shards, so every shard
// starts on a freshly booted kernel and its outcome depends only on the
// descriptor (the farm's determinism contract), no matter which process
// runs it or in what order.  Not safe for concurrent use; a worker
// running leases in parallel owns one Executor per slot.
type Executor struct {
	cfg      Config
	reg      *core.Registry
	dispatch core.Dispatcher
	fixture  core.Fixture
	index    map[string]catalog.MuT
	runner   *core.Runner
	// spanParent is the enclosing fleet unit span, when the worker runs
	// with a flight recorder.
	spanParent uint64
}

// NewExecutor assembles an executor from the same pieces core.NewRunner
// takes.
func NewExecutor(cfg Config, reg *core.Registry, dispatch core.Dispatcher, fixture core.Fixture) *Executor {
	if cfg.Cap <= 0 {
		cfg.Cap = core.DefaultCap
	}
	index := make(map[string]catalog.MuT)
	for _, m := range catalog.MuTsFor(cfg.OS) {
		index[m.Name] = m
	}
	return &Executor{cfg: cfg, reg: reg, dispatch: dispatch, fixture: fixture, index: index}
}

// SetSpanParent links the runner's mut spans under an enclosing span —
// the fleet worker's per-lease unit span.
func (e *Executor) SetSpanParent(id uint64) { e.spanParent = id }

// RunShard executes one descriptor on a freshly booted machine and packs
// its outcome.
func (e *Executor) RunShard(ctx context.Context, d ShardDesc) (ShardResult, error) {
	m, ok := e.index[d.MuT]
	if !ok {
		return ShardResult{}, fmt.Errorf("farm: shard %d: %q is not tested on %s", d.Index, d.MuT, e.cfg.OS)
	}
	if e.runner == nil {
		e.runner = core.NewRunner(e.cfg.Config, e.reg, e.dispatch, e.fixture)
	}
	e.runner.SetSpanParent(e.spanParent)
	res, err := e.runner.RunMuT(ctx, m, d.Wide)
	if err != nil {
		return ShardResult{}, err
	}
	reboots := e.runner.ResetMachine()
	return EncodeShardResult(res, reboots), nil
}
