package ballista

import (
	"context"
	"sort"
	"strings"
	"testing"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/report"
)

// testCap keeps integration campaigns fast; sampling accuracy against the
// full 5000-case cap is exercised separately in BenchmarkSamplingAccuracy.
const testCap = 150

// runAllOnce runs one campaign per OS, cached across the test binary.
var cachedResults map[OS]*Result

func allResults(t *testing.T) map[OS]*Result {
	t.Helper()
	if cachedResults == nil {
		r, err := RunAll(WithCap(testCap))
		if err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		cachedResults = r
	}
	return cachedResults
}

// TestTable1Census pins the MuT counts and Catastrophic counts to the
// paper's Table 1, which this reproduction matches exactly.  The
// sockets group is a post-paper extension and is excluded from the
// census here (its per-OS size is pinned separately below).
func TestTable1Census(t *testing.T) {
	results := allResults(t)
	want := map[OS]struct {
		sysTested, sysCat, libTested, libCat int
	}{
		Linux:   {91, 0, 94, 0},
		Win95:   {133, 7, 94, 1},
		Win98:   {143, 5, 94, 2},
		Win98SE: {143, 6, 94, 1},
		WinNT:   {143, 0, 94, 0},
		Win2000: {143, 0, 94, 0},
		WinCE:   {71, 10, 108, 27},
	}
	for _, o := range AllOSes() {
		w := want[o]
		var sysTested, sysCat, libTested, libCat, sockets int
		for _, ms := range report.Stats(results[o]) {
			if ms.Group == catalog.GrpSockets {
				sockets++
				continue
			}
			if ms.SystemCall {
				sysTested++
				if ms.Catastrophic {
					sysCat++
				}
			} else {
				libTested++
				if ms.Catastrophic {
					libCat++
				}
			}
		}
		if sysTested != w.sysTested || sysCat != w.sysCat {
			t.Errorf("%s system calls: tested %d cat %d, want %d/%d",
				o, sysTested, sysCat, w.sysTested, w.sysCat)
		}
		if libTested != w.libTested || libCat != w.libCat {
			t.Errorf("%s C library: tested %d cat %d, want %d/%d",
				o, libTested, libCat, w.libTested, w.libCat)
		}
		wantSockets := 10 // Winsock incl. closesocket + WSAGetLastError
		if o == Linux {
			wantSockets = 8 // BSD surface
		}
		if sockets != wantSockets {
			t.Errorf("%s sockets group: tested %d, want %d", o, sockets, wantSockets)
		}
	}
}

// TestNoCrashPlateau: "Windows NT, Windows 2000, and Linux exhibited no
// Catastrophic failures during this testing."
func TestNoCrashPlateau(t *testing.T) {
	results := allResults(t)
	for _, o := range []OS{Linux, WinNT, Win2000} {
		if names := results[o].CatastrophicMuTs(); len(names) != 0 {
			t.Errorf("%s crashed on: %v", o, names)
		}
		if results[o].Reboots != 0 {
			t.Errorf("%s needed %d reboots", o, results[o].Reboots)
		}
	}
}

// TestSyscallAbortOrdering pins the architectural result: NT-family
// system-call Abort rates exceed the 9x family's, which exceed Linux's.
func TestSyscallAbortOrdering(t *testing.T) {
	results := allResults(t)
	sums := make(map[OS]report.Summary)
	for _, s := range Summaries(results) {
		sums[s.OS] = s
	}
	if !(sums[WinNT].SysAbortPct > sums[Win98].SysAbortPct) {
		t.Errorf("NT sys abort (%.1f%%) should exceed Win98's (%.1f%%)",
			sums[WinNT].SysAbortPct, sums[Win98].SysAbortPct)
	}
	if !(sums[Win98].SysAbortPct > sums[Linux].SysAbortPct) {
		t.Errorf("Win98 sys abort (%.1f%%) should exceed Linux's (%.1f%%)",
			sums[Win98].SysAbortPct, sums[Linux].SysAbortPct)
	}
	// And the C library inverts: glibc aborts more than msvcrt.
	if !(sums[Linux].CLibAbortPct > sums[WinNT].CLibAbortPct) {
		t.Errorf("glibc C-lib abort (%.1f%%) should exceed msvcrt's (%.1f%%)",
			sums[Linux].CLibAbortPct, sums[WinNT].CLibAbortPct)
	}
}

// TestFourOfTwelveGroups reproduces the paper's conclusion verbatim:
// "Linux had a significantly lower Abort failure rate in eight out of
// twelve functional groupings, but was significantly higher in the
// remaining four.  The four groupings for which Linux Abort failures are
// higher are entirely within the C library."
func TestFourOfTwelveGroups(t *testing.T) {
	results := allResults(t)
	matrix := GroupMatrix(results)
	linux := matrix[Linux]
	nt := matrix[WinNT]

	var higher []catalog.Group
	for _, g := range catalog.Groups() {
		if linux[g].NA || nt[g].NA {
			continue
		}
		if linux[g].Pct > nt[g].Pct {
			higher = append(higher, g)
		}
	}
	want := map[catalog.Group]bool{
		catalog.GrpCChar:     true,
		catalog.GrpCFileIO:   true,
		catalog.GrpCMemory:   true,
		catalog.GrpCStreamIO: true,
	}
	if len(higher) != 4 {
		t.Fatalf("Linux higher in %d groups (%v), want exactly 4", len(higher), higher)
	}
	for _, g := range higher {
		if !want[g] {
			t.Errorf("Linux higher in unexpected group %v", g)
		}
		if g.SystemCallGroup() {
			t.Errorf("Linux-higher group %v is not a C library group", g)
		}
	}
}

// TestCCharBoundary: "Linux has more than a 30%% Abort failure rate for C
// character operations, whereas all the Windows systems have zero percent
// failure rates."
func TestCCharBoundary(t *testing.T) {
	results := allResults(t)
	matrix := GroupMatrix(results)
	if got := matrix[Linux][catalog.GrpCChar].Pct; got < 30 {
		t.Errorf("Linux C char rate %.1f%%, paper reports >30%%", got)
	}
	for _, o := range []OS{Win95, Win98, Win98SE, WinNT, Win2000, WinCE} {
		if got := matrix[o][catalog.GrpCChar].Pct; got != 0 {
			t.Errorf("%s C char rate %.1f%%, paper reports 0%%", o, got)
		}
	}
}

// TestCENAGroups: the paper could not report CE rates for the C file I/O
// and C stream I/O groups (too many Catastrophic functions) nor C time
// (unsupported).
func TestCENAGroups(t *testing.T) {
	results := allResults(t)
	ce := GroupMatrix(results)[WinCE]
	for _, g := range []catalog.Group{catalog.GrpCFileIO, catalog.GrpCStreamIO, catalog.GrpCTime} {
		if !ce[g].NA {
			t.Errorf("CE group %v should be unreportable (N/A), got %.1f%%", g, ce[g].Pct)
		}
	}
	if ce[catalog.GrpCTime].Tested != 0 {
		t.Errorf("CE C time group should have no MuTs, has %d", ce[catalog.GrpCTime].Tested)
	}
}

// TestTable3Inventory pins the Catastrophic function lists per OS to the
// paper's Table 3.
func TestTable3Inventory(t *testing.T) {
	results := allResults(t)
	names := func(o OS) []string {
		var out []string
		out = append(out, results[o].CatastrophicMuTs()...)
		sort.Strings(out)
		return out
	}
	want95 := []string{
		"DuplicateHandle", "FileTimeToSystemTime", "GetFileInformationByHandle",
		"GetThreadContext", "HeapCreate", "MsgWaitForMultipleObjects",
		"ReadProcessMemory", "fwrite",
	}
	if got := names(Win95); !equalStrings(got, want95) {
		t.Errorf("Win95 Catastrophic functions:\n got %v\nwant %v", got, want95)
	}
	want98 := []string{
		"DuplicateHandle", "GetFileInformationByHandle", "GetThreadContext",
		"MsgWaitForMultipleObjects", "MsgWaitForMultipleObjectsEx",
		"fwrite", "strncpy",
	}
	if got := names(Win98); !equalStrings(got, want98) {
		t.Errorf("Win98 Catastrophic functions:\n got %v\nwant %v", got, want98)
	}
	want98SE := []string{
		"CreateThread", "DuplicateHandle", "GetFileInformationByHandle",
		"GetThreadContext", "MsgWaitForMultipleObjects",
		"MsgWaitForMultipleObjectsEx", "strncpy",
	}
	if got := names(Win98SE); !equalStrings(got, want98SE) {
		t.Errorf("Win98SE Catastrophic functions:\n got %v\nwant %v", got, want98SE)
	}

	// Windows CE: ten system calls...
	ceSys := map[string]bool{}
	for _, mr := range results[WinCE].Results {
		if mr.Catastrophic() && mr.MuT.API == catalog.Win32 {
			ceSys[mr.MuT.Name] = true
		}
	}
	wantCESys := []string{
		"CreateThread", "GetThreadContext", "InterlockedDecrement",
		"InterlockedExchange", "InterlockedIncrement",
		"MsgWaitForMultipleObjects", "MsgWaitForMultipleObjectsEx",
		"ReadProcessMemory", "SetThreadContext", "VirtualAlloc",
	}
	for _, n := range wantCESys {
		if !ceSys[n] {
			t.Errorf("CE missing Catastrophic system call %s", n)
		}
	}
	if len(ceSys) != 10 {
		t.Errorf("CE Catastrophic system calls = %d, want 10", len(ceSys))
	}
	// ...and 17 FILE*-driven C functions plus UNICODE strncpy (27
	// counting variants separately).
	ceCLib := 0
	sawWStrncpy := false
	for _, mr := range results[WinCE].Results {
		if mr.Catastrophic() && mr.MuT.API == catalog.CLib {
			ceCLib++
			if mr.MuT.Name == "strncpy" && mr.Wide {
				sawWStrncpy = true
			}
			if mr.MuT.Name == "strncpy" && !mr.Wide {
				t.Error("ASCII strncpy crashed CE; the paper reports only the UNICODE variant")
			}
		}
	}
	if ceCLib != 27 {
		t.Errorf("CE Catastrophic C variants = %d, want 27", ceCLib)
	}
	if !sawWStrncpy {
		t.Error("CE UNICODE strncpy did not crash")
	}
}

// TestHarnessOnlyIsolation reproduces the paper's observation that some
// crashes "could not be reproduced outside of the test harness": in
// Isolated mode (fresh machine per case) the "*" defects never crash,
// while the immediate ones still do.
func TestHarnessOnlyIsolation(t *testing.T) {
	r, err := NewRunner(Win98, WithCap(testCap), WithIsolation()).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	crashed := map[string]bool{}
	for _, name := range r.CatastrophicMuTs() {
		crashed[name] = true
	}
	// Harness-only defects must not reproduce in isolation.
	for _, name := range []string{"DuplicateHandle", "MsgWaitForMultipleObjectsEx", "fwrite", "strncpy"} {
		if crashed[name] {
			t.Errorf("harness-only defect %s crashed in isolated mode", name)
		}
	}
	// Immediate defects reproduce from a single test case.
	for _, name := range []string{"GetThreadContext", "GetFileInformationByHandle", "MsgWaitForMultipleObjects"} {
		if !crashed[name] {
			t.Errorf("immediate defect %s did not reproduce in isolated mode", name)
		}
	}
}

// TestSilentFailureVoting reproduces the Figure 2 analysis: the 9x family
// shows significantly higher estimated Silent rates on system calls than
// the NT family.
func TestSilentFailureVoting(t *testing.T) {
	results := allResults(t)
	est := EstimateSilent(results)
	sysSilent := func(o OS) float64 {
		var sum float64
		var n int
		for _, s := range est[o] {
			if s.Group.SystemCallGroup() {
				sum += s.Rate()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return 100 * sum / float64(n)
	}
	for _, o := range []OS{Win95, Win98, Win98SE} {
		if got, nt := sysSilent(o), sysSilent(WinNT); got < nt+3 {
			t.Errorf("%s estimated Silent (%.1f%%) should clearly exceed NT's (%.1f%%)", o, got, nt)
		}
	}
}

// TestDeterminism: two identical campaigns classify every case
// identically (the paper: "virtually all test results reproduce the same
// robustness problems every time").
func TestDeterminism(t *testing.T) {
	run := func() *Result {
		r, err := Run(Win98, WithCap(60))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Name() != rb.Name() || len(ra.Cases) != len(rb.Cases) {
			t.Fatalf("MuT %d shape differs", i)
		}
		for j := range ra.Cases {
			if ra.Cases[j] != rb.Cases[j] {
				t.Errorf("%s case %d: %v vs %v", ra.Name(), j, ra.Cases[j], rb.Cases[j])
			}
		}
	}
}

// TestRendering smoke-tests every table and figure renderer.
func TestRendering(t *testing.T) {
	results := allResults(t)
	for name, out := range map[string]string{
		"Table1":  Table1(results),
		"Table2":  Table2(results),
		"Table3":  Table3(results),
		"Figure1": Figure1(results),
		"Figure2": Figure2(results),
	} {
		if len(out) < 100 {
			t.Errorf("%s suspiciously short:\n%s", name, out)
		}
	}
	if !strings.Contains(Table3(results), "GetThreadContext") {
		t.Error("Table 3 missing GetThreadContext")
	}
	if !strings.Contains(Table3(results), "*fwrite") {
		t.Error("Table 3 missing harness-only marker on fwrite")
	}
}

// TestRestartRatesRare: "Restart failures were relatively rare for all
// the OS implementations tested."
func TestRestartRatesRare(t *testing.T) {
	for _, s := range Summaries(allResults(t)) {
		if s.OverallRestartPct > 3 {
			t.Errorf("%s restart rate %.2f%% is not rare", s.OS, s.OverallRestartPct)
		}
	}
}

// TestListing1SingleCase drives the runner's single-case mode against the
// paper's Listing 1.
func TestListing1SingleCase(t *testing.T) {
	m, ok := catalog.ByName(catalog.Win32, "GetThreadContext")
	if !ok {
		t.Fatal("GetThreadContext not in catalog")
	}
	// HTHREAD value index: PSEUDO_THREAD; LPCONTEXT value index: NULL.
	reg := newTestRegistry(t)
	idx := func(typeName, valueName string) int {
		dt, ok := reg.Lookup(typeName)
		if !ok {
			t.Fatalf("type %s missing", typeName)
		}
		for i, v := range dt.Values {
			if v.Name == valueName {
				return i
			}
		}
		t.Fatalf("value %s/%s missing", typeName, valueName)
		return -1
	}
	tc := core.Case{idx("HTHREAD", "PSEUDO_THREAD"), idx("LPCONTEXT", "NULL")}
	for _, tt := range []struct {
		os    OS
		crash bool
	}{{Win95, true}, {Win98, true}, {WinCE, true}, {WinNT, false}, {Win2000, false}} {
		cls, err := NewRunner(tt.os, WithIsolation()).RunCase(m, tc, false)
		if err != nil {
			t.Fatal(err)
		}
		if tt.crash && cls != Catastrophic {
			t.Errorf("%s: Listing 1 classified %v, want Catastrophic", tt.os, cls)
		}
		if !tt.crash && cls != Abort {
			t.Errorf("%s: Listing 1 classified %v, want Abort", tt.os, cls)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newTestRegistry(t *testing.T) *core.Registry {
	t.Helper()
	return suiteRegistry()
}

// TestNewRunnerSharesSuiteRegistry: the facade builds the suite registry
// once per process, so a runner costs a handful of allocations instead
// of a registry rebuild (~1000) — the scarce sweep builds one per probe.
func TestNewRunnerSharesSuiteRegistry(t *testing.T) {
	if Registry() != Registry() {
		t.Fatal("Registry() returned two different instances")
	}
	if n := testing.AllocsPerRun(20, func() { NewRunner(WinNT) }); n > 10 {
		t.Errorf("NewRunner(WinNT) allocates %.0f times, want <= 10", n)
	}
}

// TestContinueAfterCrash: with the paper's stop-on-crash behaviour
// disabled, a MuT's campaign runs to completion across reboots and can
// record multiple Catastrophic cases.
func TestContinueAfterCrash(t *testing.T) {
	m, _ := catalog.ByName(catalog.Win32, "GetThreadContext")
	res, err := NewRunner(Win98, WithCap(500), WithContinueAfterCrash()).RunMuT(context.Background(), m, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Error("campaign marked incomplete despite continue-after-crash")
	}
	if n := res.Count(Catastrophic); n < 2 {
		t.Errorf("continued campaign recorded %d crashes, want several", n)
	}
	// The full cross-product runs (GetThreadContext's pools are small
	// enough to be exhaustive), unlike the truncated default mode.
	truncated, err := NewRunner(Win98, WithCap(500)).RunMuT(context.Background(), m, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) <= len(truncated.Cases) {
		t.Errorf("continued campaign ran %d cases, truncated ran %d", len(res.Cases), len(truncated.Cases))
	}
}

// TestRebootsCounted: the Windows 98 campaign reboots the machine once
// per Catastrophic failure, as the paper's procedure did.
func TestRebootsCounted(t *testing.T) {
	res := allResults(t)[Win98]
	crashes := 0
	for _, mr := range res.Results {
		crashes += mr.Count(Catastrophic)
	}
	if res.Reboots != crashes {
		t.Errorf("reboots = %d, catastrophic cases = %d", res.Reboots, crashes)
	}
	if res.Reboots == 0 {
		t.Error("Windows 98 campaign recorded no reboots")
	}
}

// TestStopOnCrashTruncates: the default mode abandons a MuT at its first
// Catastrophic case ("the set of test cases run for that function is
// incomplete").
func TestStopOnCrashTruncates(t *testing.T) {
	m, _ := catalog.ByName(catalog.Win32, "GetThreadContext")
	res, err := NewRunner(Win98, WithCap(500)).RunMuT(context.Background(), m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Error("crashing MuT not marked incomplete")
	}
	if res.Cases[len(res.Cases)-1] != Catastrophic {
		t.Error("truncated campaign should end at the Catastrophic case")
	}
	if len(res.Cases) >= 500 {
		t.Error("campaign was not truncated")
	}
}
