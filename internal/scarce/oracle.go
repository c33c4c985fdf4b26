package scarce

import (
	"fmt"
	"sort"
	"strings"

	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
)

// Deps supplies the execution substrate the sweep needs without tying
// this package to the facade: a fresh runner per probe (fresh machines
// are what make results independent of worker count) over one shared,
// read-only test-value registry, the per-OS MuT catalog, and that
// registry itself for picking the all-valid case.
type Deps struct {
	NewRunner func(o osprofile.OS) *core.Runner
	MuTs      func(o osprofile.OS) []catalog.MuT
	Registry  *core.Registry
}

// Degradation verdicts, from best to worst.  "graceful" is the only
// passing grade once the environment actually fired.
const (
	// DegradeGraceful: the call reported a documented scarcity code.
	DegradeGraceful = "graceful"
	// DegradeUntouched: the call never touched the depleted resource.
	DegradeUntouched = "untouched"
	// DegradeWrongCode: the call errored, but with a code that does not
	// describe resource exhaustion — the caller cannot react correctly.
	DegradeWrongCode = "wrong-code"
	// DegradeSilent: the call reported success while the resource ran
	// dry underneath it — it lied (the 9x null-handle pattern).
	DegradeSilent = "silent"
	// DegradeAbort / DegradeHang / DegradeCrash: CRASH-scale failures
	// under scarcity, escalating severity.
	DegradeAbort = "abort"
	DegradeHang  = "hang"
	DegradeCrash = "crash"
	// DegradeSkip: the probe could not run (constructor failure or
	// runner error); excluded from divergence comparison.
	DegradeSkip = "skip"
)

// Verdict is one OS profile's judgement of one (MuT, environment) item.
type Verdict struct {
	// Class is the raw CRASH class of the probed call.
	Class core.RawClass `json:"class"`
	// Code is the errno / GetLastError value reported, if any.
	Code uint32 `json:"code,omitempty"`
	// Fired counts scarcity faults injected during the call.
	Fired uint64 `json:"fired,omitempty"`
	// Degrade is the graceful-degradation grade (Degrade* constants).
	Degrade string `json:"degrade"`
	// Leak is the live-counter delta across the call.
	Leak core.LeakDelta `json:"leak"`
	// Leaked marks a positive delta on an error path: the call failed
	// but kept resources it acquired on the way.
	Leaked bool `json:"leaked,omitempty"`
}

// violating reports whether this verdict fails any scarce oracle.
func (v *Verdict) violating() bool {
	switch v.Degrade {
	case DegradeCrash, DegradeHang, DegradeAbort, DegradeWrongCode, DegradeSilent:
		return true
	}
	return v.Leaked
}

// pattern is the verdict's contribution to the finding signature: the
// degradation grade, tagged when the leak oracle also fired.
func (v *Verdict) pattern() string {
	if v.Leaked {
		return v.Degrade + "+leak"
	}
	return v.Degrade
}

// Finding records one (MuT, environment) item worth reporting: an
// oracle violation on at least one OS, or a cross-OS divergence.
type Finding struct {
	// API is the wire name of the MuT's API family ("win32", "posix",
	// "clib").
	API string `json:"api"`
	// MuT names the module under test.
	MuT string `json:"mut"`
	// Env is the depleted environment the MuT ran inside.
	Env Env `json:"env"`
	// Case holds the all-valid test-value indices used for the probe.
	Case core.Case `json:"case"`
	// Verdicts maps OS wire name to that profile's judgement.
	Verdicts map[string]*Verdict `json:"verdicts"`
	// Divergent marks differing verdict patterns across the OS set.
	Divergent bool `json:"divergent,omitempty"`
	// Violating marks at least one per-OS oracle violation.
	Violating bool `json:"violating,omitempty"`
	// Signature is the dedup key: MuT, environment axes, and the sorted
	// per-OS verdict patterns.
	Signature string `json:"signature"`

	// mut carries the catalog entry for in-sweep minimization; findings
	// parsed back from JSON fall back to a catalog lookup.
	mut catalog.MuT
}

// apiWire maps an API family to its wire name.
func apiWire(a catalog.API) string {
	switch a {
	case catalog.Win32:
		return "win32"
	case catalog.POSIX:
		return "posix"
	default:
		return "clib"
	}
}

// muTByWire resolves a finding's API/MuT wire pair back to the catalog.
func muTByWire(apiName, name string) (catalog.MuT, bool) {
	var a catalog.API
	switch apiName {
	case "win32":
		a = catalog.Win32
	case "posix":
		a = catalog.POSIX
	case "clib":
		a = catalog.CLib
	default:
		return catalog.MuT{}, false
	}
	return catalog.ByName(a, name)
}

// validCase picks the canonical all-valid test case for a MuT: the
// first non-exceptional value index per parameter (index 0 when every
// value is exceptional).  Scarcity tests how correct calls degrade, so
// the inputs themselves must be benign.
func validCase(reg *core.Registry, m catalog.MuT) (core.Case, bool) {
	tc := make(core.Case, len(m.Params))
	for i, name := range m.Params {
		dt, ok := reg.Lookup(name)
		if !ok {
			return nil, false
		}
		tc[i] = 0
		for vi := range dt.Values {
			if !dt.Exceptional(vi) {
				tc[i] = vi
				break
			}
		}
	}
	return tc, true
}

// degrade grades one probe against the graceful-degradation oracle.
func degrade(m catalog.MuT, p *core.ScarceProbe) string {
	switch p.Class {
	case core.RawCatastrophic:
		return DegradeCrash
	case core.RawRestart:
		return DegradeHang
	case core.RawAbort:
		return DegradeAbort
	case core.RawSkip:
		return DegradeSkip
	}
	if p.Fired == 0 {
		return DegradeUntouched
	}
	if p.Class == core.RawError {
		codes := api.ScarcityCodesPOSIX()
		if m.API == catalog.Win32 {
			codes = api.ScarcityCodesWin()
		}
		if codes[p.Code] {
			return DegradeGraceful
		}
		return DegradeWrongCode
	}
	// RawClean with faults fired: the call claims success over a
	// depleted resource.
	return DegradeSilent
}

// evalVerdict probes one MuT on one OS inside env and grades it.  A
// fresh runner (fresh simulated machine) per probe, over the shared
// read-only registry, keeps the result a pure function of (OS, MuT,
// case, env, seed), independent of item scheduling across workers.
func evalVerdict(deps *Deps, o osprofile.OS, m catalog.MuT, tc core.Case, env Env, seed uint64) *Verdict {
	r := deps.NewRunner(o)
	probe, err := r.RunScarceProbe(m, tc, false, env.Plan(seed))
	if err != nil {
		return &Verdict{Class: core.RawSkip, Degrade: DegradeSkip}
	}
	v := &Verdict{
		Class: probe.Class,
		Code:  probe.Code,
		Fired: probe.Fired,
		Leak:  probe.Leak,
	}
	v.Leaked = probe.Leak.Leaked() && (probe.Class == core.RawError || probe.Class == core.RawAbort)
	v.Degrade = degrade(m, probe)
	return v
}

// itemResult is one evaluated (environment, MuT) item: aggregate
// counters always, plus a Finding when any oracle fired.
type itemResult struct {
	Probes     int      `json:"p"`
	Crashed    int      `json:"c,omitempty"`
	Leaked     int      `json:"l,omitempty"`
	Ungraceful int      `json:"u,omitempty"`
	Finding    *Finding `json:"f,omitempty"`
}

// evalItem runs one MuT inside one environment across its supporting
// OS profiles and applies all three oracles.
func evalItem(deps *Deps, env Env, m catalog.MuT, oses []osprofile.OS, seed uint64) *itemResult {
	res := &itemResult{}
	tc, ok := validCase(deps.Registry, m)
	if !ok {
		return res
	}
	f := &Finding{
		API:      apiWire(m.API),
		MuT:      m.Name,
		Env:      env,
		Case:     tc,
		Verdicts: make(map[string]*Verdict, len(oses)),
		mut:      m,
	}
	patterns := make(map[string]bool)
	for _, o := range oses {
		v := evalVerdict(deps, o, m, tc, env, seed)
		f.Verdicts[o.WireName()] = v
		res.Probes++
		if v.Degrade == DegradeCrash {
			res.Crashed++
		}
		if v.Leaked {
			res.Leaked++
		}
		if v.Degrade == DegradeWrongCode || v.Degrade == DegradeSilent {
			res.Ungraceful++
		}
		if v.violating() {
			f.Violating = true
		}
		if v.Degrade != DegradeSkip {
			patterns[v.pattern()] = true
		}
	}
	f.Divergent = len(patterns) > 1
	f.Signature = signature(f)
	if f.Violating || f.Divergent {
		res.Finding = f
	}
	return res
}

// signature builds the dedup key for a finding.  The environment
// contributes its axis Key, not its display name, so a composite
// environment minimized to one axis collapses onto the equivalent
// single-axis finding.
func signature(f *Finding) string {
	parts := make([]string, 0, len(f.Verdicts))
	for name, v := range f.Verdicts {
		parts = append(parts, name+"="+v.pattern())
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s|%s|%s|%s", f.API, f.MuT, f.Env.Key(), strings.Join(parts, ","))
}

// samePattern reports whether two findings carry the same per-OS
// verdict patterns — the minimization invariant.
func samePattern(a, b *Finding) bool {
	if len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for name, va := range a.Verdicts {
		vb, ok := b.Verdicts[name]
		if !ok || va.pattern() != vb.pattern() {
			return false
		}
	}
	return true
}

// Minimize reduces a composite-environment finding to the first
// single-axis sub-environment that reproduces the same per-OS verdict
// pattern, or returns the finding unchanged when no sub-environment
// does (the failure needs the combination, or the environment is
// already single-axis).
func Minimize(f *Finding, deps *Deps, oses []osprofile.OS, seed uint64) *Finding {
	subs := f.Env.Split()
	if len(subs) <= 1 {
		return f
	}
	m := f.mut
	if m.Name == "" {
		var ok bool
		if m, ok = muTByWire(f.API, f.MuT); !ok {
			return f
		}
	}
	// Re-probe only the profiles the original finding covered, in
	// sweep OS order.
	var sup []osprofile.OS
	for _, o := range oses {
		if _, ok := f.Verdicts[o.WireName()]; ok {
			sup = append(sup, o)
		}
	}
	for _, sub := range subs {
		r := evalItem(deps, sub, m, sup, seed)
		if r.Finding != nil && samePattern(r.Finding, f) {
			return r.Finding
		}
	}
	return f
}
