package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// model is the reference page table: one map entry per mapped page,
// every operation a page-at-a-time loop, and copy-in a byte at a time.
// The extent table must be indistinguishable from it.
type model struct {
	pages         map[uint32]*modelPage
	userNext      Addr
	sysNext       Addr
	allocs        map[Addr]uint32
	quota, mapped uint64
	stats         Stats
}

type modelPage struct {
	prot Prot
	data []byte // nil until written
}

func newModel() *model {
	return &model{
		pages:    make(map[uint32]*modelPage),
		userNext: UserBase,
		sysNext:  SystemBase + 0x01000000,
		allocs:   make(map[Addr]uint32),
	}
}

func (m *model) Map(addr Addr, size uint32, prot Prot) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	first, last := pageNum(addr), pageNum(addr+Addr(size-1))
	fresh := uint64(0)
	for pn := first; pn <= last; pn++ {
		if m.pages[pn] == nil {
			fresh += PageSize
		}
	}
	if m.quota != 0 && m.mapped+fresh > m.quota {
		return ErrNoSpace
	}
	for pn := first; pn <= last; pn++ {
		if pg := m.pages[pn]; pg != nil {
			pg.prot = prot
		} else {
			m.pages[pn] = &modelPage{prot: prot}
		}
	}
	m.mapped += fresh
	m.stats.PagesMapped += fresh / PageSize
	return nil
}

func (m *model) Unmap(addr Addr, size uint32) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	for pn := pageNum(addr); pn <= pageNum(addr+Addr(size-1)); pn++ {
		if m.pages[pn] != nil {
			m.mapped -= PageSize
			m.stats.PagesUnmapped++
			delete(m.pages, pn)
		}
	}
	return nil
}

func (m *model) Protect(addr Addr, size uint32, prot Prot) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	first, last := pageNum(addr), pageNum(addr+Addr(size-1))
	for pn := first; pn <= last; pn++ {
		if m.pages[pn] == nil {
			return &Fault{Addr: Addr(pn << PageShift), Kind: FaultUnmapped}
		}
	}
	for pn := first; pn <= last; pn++ {
		if m.pages[pn].prot != prot {
			m.pages[pn].prot = prot
			m.stats.ProtTransitions++
		}
	}
	return nil
}

func (m *model) Mapped(addr Addr, size uint32, prot Prot) bool {
	size = max(size, 1)
	if addr+Addr(size-1) < addr {
		return false
	}
	for pn := pageNum(addr); pn <= pageNum(addr+Addr(size-1)); pn++ {
		if pg := m.pages[pn]; pg == nil || pg.prot&prot != prot {
			return false
		}
	}
	return true
}

func (m *model) ProtAt(a Addr) (Prot, bool) {
	if pg := m.pages[pageNum(a)]; pg != nil {
		return pg.prot, true
	}
	return ProtNone, false
}

// access returns the fault a one-byte user-mode access at a raises.
func (m *model) access(a Addr, write bool) *Fault {
	if RegionOf(a) == RegionKernel {
		return &Fault{Addr: a, Write: write, Kind: FaultKernelRange}
	}
	pg := m.pages[pageNum(a)]
	if pg == nil {
		return &Fault{Addr: a, Write: write, Kind: FaultUnmapped}
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if pg.prot&need != need {
		return &Fault{Addr: a, Write: write, Kind: FaultProtection}
	}
	return nil
}

// check probes the range a byte at a time, so the fault it returns is at
// the first inaccessible byte — which for a range starting mid-page is
// addr itself, and otherwise a page start.
func (m *model) check(addr Addr, size uint32, write bool) *Fault {
	size = max(size, 1)
	if addr+Addr(size-1) < addr {
		return &Fault{Addr: addr, Write: write, Kind: FaultUnmapped}
	}
	for i := uint32(0); i < size; i++ {
		if f := m.access(addr+Addr(i), write); f != nil {
			return f
		}
	}
	return nil
}

func (m *model) byteAt(a Addr) byte {
	if d := m.pages[pageNum(a)].data; d != nil {
		return d[pageOff(a)]
	}
	return 0
}

func (m *model) Read(addr Addr, size uint32) ([]byte, *Fault) {
	if f := m.check(addr, size, false); f != nil {
		m.stats.Faults++
		return nil, f
	}
	out := make([]byte, size)
	for i := range out {
		out[i] = m.byteAt(addr + Addr(i))
	}
	return out, nil
}

func (m *model) Write(addr Addr, data []byte) *Fault {
	if len(data) == 0 {
		return nil
	}
	if f := m.check(addr, uint32(len(data)), true); f != nil {
		m.stats.Faults++
		return f
	}
	for i, b := range data {
		pg := m.pages[pageNum(addr+Addr(i))]
		if pg.data == nil {
			pg.data = make([]byte, PageSize)
		}
		pg.data[pageOff(addr+Addr(i))] = b
	}
	return nil
}

func (m *model) CString(addr Addr) (string, *Fault) {
	var buf []byte
	for i := 0; i < CStringLimit; i++ {
		a := addr + Addr(i)
		if f := m.access(a, false); f != nil {
			m.stats.Faults++
			return "", f
		}
		b := m.byteAt(a)
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf), nil
}

func (m *model) alloc(next *Addr, top Addr, size uint32, prot Prot) (Addr, error) {
	size = max(size, 1)
	pages := (size + PageSize - 1) / PageSize
	base := *next
	span := Addr(pages+1) * PageSize
	if base+span < base || base+span > top {
		return 0, ErrNoSpace
	}
	if err := m.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	*next = base + span
	m.allocs[base] = pages * PageSize
	m.stats.Allocs++
	return base, nil
}

func (m *model) Alloc(size uint32, prot Prot) (Addr, error) {
	return m.alloc(&m.userNext, UserTop, size, prot)
}

func (m *model) AllocSystem(size uint32, prot Prot) (Addr, error) {
	return m.alloc(&m.sysNext, SystemTop, size, prot)
}

func (m *model) Free(base Addr) error {
	size, ok := m.allocs[base]
	if !ok {
		return fmt.Errorf("mem: Free(%#08x): %w", uint32(base), ErrBadRange)
	}
	delete(m.allocs, base)
	m.stats.Frees++
	return m.Unmap(base, size)
}

// opReader decodes an operation sequence from bytes; past the end it
// reads zeros.
type opReader struct {
	b     []byte
	bases []Addr // blocks Alloc and AllocSystem returned, for Free and pointers into them
}

func (r *opReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// modelAnchors are where ranges start: the null region, the two
// allocator arenas, runs crossing into the kernel range, and the top of
// the 32-bit space, where ranges wrap.
var modelAnchors = [...]Addr{0, UserBase, SystemBase + 0x01000000, KernelBase - 16*PageSize, 0xFFFF0000}

func (r *opReader) addr() Addr {
	var a Addr
	if c := r.next(); c%4 == 0 && len(r.bases) > 0 {
		a = r.bases[int(c/4)%len(r.bases)]
	} else {
		a = modelAnchors[int(c/4)%len(modelAnchors)] + Addr(r.next()%32)*PageSize
	}
	switch r.next() % 4 {
	case 0:
		return a
	case 1:
		return a + 1
	case 2:
		return a + PageSize - 1
	default:
		return a + Addr(r.next())*17
	}
}

func (r *opReader) size() uint32 {
	switch r.next() % 6 {
	case 0:
		return 0
	case 1:
		return uint32(r.next()%8) + 1
	case 2:
		return PageSize - 1 + uint32(r.next()%3)
	case 3:
		return uint32(r.next()%16+1) * PageSize
	case 4:
		return uint32(r.next()%16)*PageSize + uint32(r.next())*16 + 1
	default:
		return uint32(r.next()) * (uint32(r.next()%64) + 1)
	}
}

func (r *opReader) prot() Prot { return Prot(r.next() % 4) }

// payload is n bytes of a pattern whose NULs land at a chosen stride,
// so CString scans end in, at the end of, or past a written page.
func (r *opReader) payload(n uint32) []byte {
	seed, stride := r.next(), uint32(r.next())+1
	b := make([]byte, min(n, 3*PageSize))
	for i := range b {
		if uint32(i)%(stride*16) != stride*16-1 {
			b[i] = seed + byte(i) | 1
		}
	}
	return b
}

// runModel drives the same decoded operation sequence against a real
// address space and the reference model, failing at the first return
// value, fault, counter or page whose state differs.
func runModel(t *testing.T, ops []byte) {
	t.Helper()
	as, m := New(), newModel()
	as.SetStats(&Stats{})
	r := &opReader{b: ops}
	for step := 0; len(r.b) > 0 && step < 256; step++ {
		var desc string
		var got, want any
		switch op := r.next() % 12; op {
		case 0:
			a, n, p := r.addr(), r.size(), r.prot()
			desc = fmt.Sprintf("Map(%#x, %#x, %v)", uint32(a), n, p)
			got, want = as.Map(a, n, p), m.Map(a, n, p)
		case 1:
			a, n := r.addr(), r.size()
			desc = fmt.Sprintf("Unmap(%#x, %#x)", uint32(a), n)
			got, want = as.Unmap(a, n), m.Unmap(a, n)
		case 2:
			a, n, p := r.addr(), r.size(), r.prot()
			desc = fmt.Sprintf("Protect(%#x, %#x, %v)", uint32(a), n, p)
			got, want = as.Protect(a, n, p), m.Protect(a, n, p)
		case 3, 4:
			n, p := r.size()%(8*PageSize), r.prot()
			desc = fmt.Sprintf("Alloc[system=%v](%#x, %v)", op == 4, n, p)
			var ga, wa Addr
			var ge, we error
			if op == 3 {
				ga, ge = as.Alloc(n, p)
				wa, we = m.Alloc(n, p)
			} else {
				ga, ge = as.AllocSystem(n, p)
				wa, we = m.AllocSystem(n, p)
			}
			if we == nil {
				r.bases = append(r.bases, wa)
			}
			got, want = [2]any{ga, ge}, [2]any{wa, we}
		case 5:
			a := r.addr()
			desc = fmt.Sprintf("Free(%#x)", uint32(a))
			got, want = fmt.Sprint(as.Free(a)), fmt.Sprint(m.Free(a))
		case 6:
			a, b := r.addr(), r.payload(r.size())
			desc = fmt.Sprintf("Write(%#x, %d bytes)", uint32(a), len(b))
			got, want = as.Write(a, b), m.Write(a, b)
		case 7:
			a, n := r.addr(), r.size()%(3*PageSize)
			desc = fmt.Sprintf("Read(%#x, %#x)", uint32(a), n)
			gb, gf := as.Read(a, n)
			wb, wf := m.Read(a, n)
			got, want = [2]any{gb, gf}, [2]any{wb, wf}
		case 8:
			a := r.addr()
			desc = fmt.Sprintf("CString(%#x)", uint32(a))
			gs, gf := as.CString(a)
			ws, wf := m.CString(a)
			got, want = [2]any{gs, gf}, [2]any{ws, wf}
		case 9:
			a, n, p := r.addr(), r.size(), r.prot()
			desc = fmt.Sprintf("Mapped(%#x, %#x, %v)", uint32(a), n, p)
			got, want = as.Mapped(a, n, p), m.Mapped(a, n, p)
		case 10:
			a := r.addr()
			desc = fmt.Sprintf("ProtAt(%#x)", uint32(a))
			gp, gok := as.ProtAt(a)
			wp, wok := m.ProtAt(a)
			got, want = [2]any{gp, gok}, [2]any{wp, wok}
		default:
			q := uint64(r.next()%48) * PageSize
			desc = fmt.Sprintf("SetQuota(%#x)", q)
			as.SetQuota(q)
			m.quota = q
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s = %v, model %v", step, desc, got, want)
		}
		if *as.stats != m.stats {
			t.Fatalf("step %d %s: stats %+v, model %+v", step, desc, *as.stats, m.stats)
		}
		if as.PageCount() != len(m.pages) || as.MappedBytes() != m.mapped {
			t.Fatalf("step %d %s: %d pages / %d bytes mapped, model %d / %d",
				step, desc, as.PageCount(), as.MappedBytes(), len(m.pages), m.mapped)
		}
		sameTable(t, as, m, fmt.Sprintf("step %d %s", step, desc))
	}
}

// sameTable checks the extent table's invariants and that it maps
// exactly the model's pages, with the model's protections and contents.
func sameTable(t *testing.T, as *AddressSpace, m *model, at string) {
	t.Helper()
	var pages uint64
	for i, e := range as.ext {
		if e.lo >= e.hi || e.hi > 1<<(32-PageShift) {
			t.Fatalf("%s: malformed run %d %+v", at, i, e)
		}
		if i > 0 {
			prev := as.ext[i-1]
			if prev.hi > e.lo || prev.hi == e.lo && prev.prot == e.prot {
				t.Fatalf("%s: runs %d %+v and %d %+v overlap or should have merged", at, i-1, prev, i, e)
			}
		}
		pages += uint64(e.hi - e.lo)
	}
	if pages*PageSize != as.mapped {
		t.Fatalf("%s: runs hold %d pages, %d bytes counted mapped", at, pages, as.mapped)
	}
	for pn, pg := range m.pages {
		if e, ok := as.lookup(pn); !ok || e.prot != pg.prot {
			t.Fatalf("%s: page %#x is %+v (mapped %v), model %v", at, pn, e, ok, pg.prot)
		}
		d := as.data[pn]
		if (d == nil) != (pg.data == nil) || d != nil && !bytes.Equal(d[:], pg.data) {
			t.Fatalf("%s: page %#x contents differ from the model", at, pn)
		}
	}
	if len(as.data) > len(m.pages) {
		t.Fatalf("%s: %d pages hold contents, only %d are mapped", at, len(as.data), len(m.pages))
	}
}

// TestAddressSpaceModel drives random operation sequences against the
// extent table and the per-page reference model.
func TestAddressSpaceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iters := 400
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		ops := make([]byte, 64+rng.Intn(1024))
		rng.Read(ops)
		runModel(t, ops)
	}
}

// FuzzAddressSpaceModel is TestAddressSpaceModel under the fuzzer.
func FuzzAddressSpaceModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0, 3, 5, 3, 2, 1, 5, 0, 3, 2, 2, 0, 2, 1, 3, 4, 3, 3, 3, 9, 1, 5, 1, 3, 8, 3, 1})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 512)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runModel(t, ops) })
}

// TestSubRangeInsideExtent: Protect and Mapped on ranges that start and
// end inside one multi-page run, which must split it, count only the
// pages that change, and leave the pages outside the range alone.
func TestSubRangeInsideExtent(t *testing.T) {
	as := New()
	st := &Stats{}
	as.SetStats(st)
	base := UserBase
	if err := as.Map(base, 8*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	// Pages 2..4, named by a range starting mid-page 2 and ending
	// mid-page 4.
	if err := as.Protect(base+2*PageSize+100, 2*PageSize+1, ProtRead); err != nil {
		t.Fatal(err)
	}
	if st.ProtTransitions != 3 {
		t.Errorf("ProtTransitions = %d, want 3", st.ProtTransitions)
	}
	for pn, want := range []Prot{ProtRW, ProtRW, ProtRead, ProtRead, ProtRead, ProtRW, ProtRW, ProtRW} {
		if got, ok := as.ProtAt(base + Addr(pn)*PageSize + 7); !ok || got != want {
			t.Errorf("page %d: %v (mapped %v), want %v", pn, got, ok, want)
		}
	}
	tests := []struct {
		addr Addr
		size uint32
		prot Prot
		want bool
	}{
		{base + PageSize + 5, 10, ProtRW, true},                // inside the first piece
		{base + 3*PageSize + 9, PageSize, ProtRead, true},      // inside the read-only piece
		{base + 3*PageSize + 9, PageSize, ProtWrite, false},    // ... which is not writable
		{base + PageSize + 5, 2 * PageSize, ProtRead, true},    // across a split
		{base + PageSize + 5, 2 * PageSize, ProtWrite, false},  // ... into read-only pages
		{base + 5*PageSize + 1, 3*PageSize - 1, ProtRW, true},  // the last piece, to its end
		{base + 5*PageSize + 1, 3 * PageSize, ProtRead, false}, // one byte past the mapping
		{base + 4*PageSize - 1, 1, ProtRead, true},             // one byte, mid-run
	}
	for _, tt := range tests {
		if got := as.Mapped(tt.addr, tt.size, tt.prot); got != tt.want {
			t.Errorf("Mapped(%#x, %#x, %v) = %v, want %v", uint32(tt.addr), tt.size, tt.prot, got, tt.want)
		}
	}
	// Protecting back merges the run, re-counting only the three pages.
	if err := as.Protect(base+2*PageSize, 3*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if st.ProtTransitions != 6 || len(as.ext) != 1 {
		t.Errorf("after restoring: %d transitions, %d runs; want 6 and 1", st.ProtTransitions, len(as.ext))
	}
	// A range starting inside the run but ending past it faults at the
	// first unmapped page and changes nothing.
	f, ok := as.Protect(base+6*PageSize+3, 4*PageSize, ProtNone).(*Fault)
	if !ok || f.Addr != base+8*PageSize || f.Kind != FaultUnmapped {
		t.Errorf("Protect past the run = %v, want an unmapped fault at %#x", f, uint32(base+8*PageSize))
	}
	if st.ProtTransitions != 6 || len(as.ext) != 1 {
		t.Errorf("a failed Protect changed the table: %d transitions, %d runs", st.ProtTransitions, len(as.ext))
	}
}

// largeMap is a 2 GiB-class reservation of 520,192 pages, the size of
// the largest a campaign case makes.
const largeMap = 0x7F000000

// TestLargeMapConstantAllocs: the page table holds runs, not pages, so
// mapping and unmapping 2 GiB allocates nothing once the run table
// exists.
func TestLargeMapConstantAllocs(t *testing.T) {
	as := New()
	n := testing.AllocsPerRun(10, func() {
		if err := as.Map(UserBase, largeMap, ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := as.Unmap(UserBase, largeMap); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Map+Unmap of %#x bytes: %v allocations, want 0", largeMap, n)
	}
	if as.PageCount() != 0 || as.MappedBytes() != 0 {
		t.Errorf("after Unmap: %d pages, %d bytes mapped", as.PageCount(), as.MappedBytes())
	}
}

func BenchmarkMapUnmapLarge(b *testing.B) {
	as := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = as.Map(UserBase, largeMap, ProtRW)
		_ = as.Unmap(UserBase, largeMap)
	}
}
