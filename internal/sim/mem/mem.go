// Package mem implements the simulated 32-bit paged address space that all
// simulated operating-system variants run on.
//
// The address space reproduces the architectural property the paper's
// Catastrophic failures hinge on: on the Windows 95/98/CE family the upper
// "system arena" (0x80000000-0xBFFFFFFF) is shared between all processes
// and the kernel, and kernel-mode code writes through user-supplied
// pointers without probing them first.  On Windows NT/2000 and Linux the
// kernel probes user pointers at the system-call boundary, so the same bad
// pointer produces an error code or an exception delivered to the faulting
// process instead of corrupting the machine.
//
// Addresses are plain uint32 values inside a per-process page table; no
// host memory is ever at risk.  The page table records mapped pages as
// runs (extents) of equal protection and keeps contents only for pages
// that have been written, so reserving gigabytes costs a few runs, not a
// heap object per page.  All faults are reported as *Fault values, never
// as Go panics.
package mem

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"ballista/internal/chaos"
)

// Addr is a simulated 32-bit virtual address.
type Addr uint32

// PageSize is the size of a simulated page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Canonical layout boundaries.  The layout mirrors 32-bit Windows: a
// private user arena, a shared "system arena" (Win9x terminology), and a
// kernel-only range.
const (
	// NullTop is the end of the never-mapped null page region.
	NullTop Addr = 0x0000FFFF
	// UserBase is the lowest address of the private user arena.
	UserBase Addr = 0x00400000
	// UserTop is the highest address of the private user arena.
	UserTop Addr = 0x7FFFFFFF
	// SystemBase is the start of the shared system arena.
	SystemBase Addr = 0x80000000
	// SystemTop is the end of the shared system arena.
	SystemTop Addr = 0xBFFFFFFF
	// KernelBase is the start of the kernel-only range.
	KernelBase Addr = 0xC0000000
)

// Region classifies an address by architectural arena.
type Region int

// Regions of the simulated 32-bit address space.
const (
	RegionNull   Region = iota // the guard pages around address zero
	RegionUser                 // private per-process arena
	RegionSystem               // shared system arena (Win9x "system arena")
	RegionKernel               // kernel-only range
)

// String returns the arena name.
func (r Region) String() string {
	switch r {
	case RegionNull:
		return "null"
	case RegionUser:
		return "user"
	case RegionSystem:
		return "system"
	case RegionKernel:
		return "kernel"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// RegionOf reports which arena a holds.
func RegionOf(a Addr) Region {
	switch {
	case a <= NullTop:
		return RegionNull
	case a >= KernelBase:
		return RegionKernel
	case a >= SystemBase:
		return RegionSystem
	default:
		return RegionUser
	}
}

// Prot is a page protection bitmask.
type Prot uint8

// Page protections.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtRW         = ProtRead | ProtWrite
)

// String returns a compact rwx-style rendering.
func (p Prot) String() string {
	b := []byte("--")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	return string(b)
}

// FaultKind distinguishes why a memory access failed.
type FaultKind int

// Kinds of memory fault.
const (
	// FaultUnmapped is an access to a page that is not mapped.
	FaultUnmapped FaultKind = iota
	// FaultProtection is an access violating page protection.
	FaultProtection
	// FaultKernelRange is a user-mode access to the kernel range.
	FaultKernelRange
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	case FaultKernelRange:
		return "kernel-range"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes a simulated memory access violation.  It implements
// error so substrate code can propagate it, but the API layer converts it
// into a simulated structured exception or signal rather than a Go error
// reaching users.
type Fault struct {
	Addr  Addr
	Write bool
	Kind  FaultKind
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("memory fault: %s at %#08x (%s, %s arena)", op, uint32(f.Addr), f.Kind, RegionOf(f.Addr))
}

// ErrNoSpace is returned when the allocator cannot find room.
var ErrNoSpace = errors.New("mem: address space exhausted")

// ErrBadRange is returned for malformed map/unmap/protect ranges.
var ErrBadRange = errors.New("mem: bad address range")

// Stats holds cheap monotonic counters for memory activity, shared by
// every address space a kernel creates so machine-wide gauges (live
// pages, live heap blocks) can be derived as differences.  Counters are
// plain integers: each simulated machine is driven by one goroutine.
type Stats struct {
	// PagesMapped / PagesUnmapped count page-table insertions and
	// removals; their difference is the live mapped-page gauge.
	PagesMapped, PagesUnmapped uint64
	// Allocs / Frees count heap blocks from Alloc/AllocSystem and Free;
	// their difference is the live heap-block gauge.
	Allocs, Frees uint64
	// Faults counts failed Read/Write accesses.
	Faults uint64
	// ProtTransitions counts pages whose protection actually changed in a
	// Protect call (state-coverage fingerprints hash it).
	ProtTransitions uint64
}

// LivePages returns currently mapped pages across all observed spaces.
func (s *Stats) LivePages() uint64 {
	if s == nil || s.PagesUnmapped > s.PagesMapped {
		return 0
	}
	return s.PagesMapped - s.PagesUnmapped
}

// LiveBlocks returns live heap blocks across all observed spaces.
func (s *Stats) LiveBlocks() uint64 {
	if s == nil || s.Frees > s.Allocs {
		return 0
	}
	return s.Allocs - s.Frees
}

// extent is one run of mapped pages [lo, hi), all with the same
// protection.  Page numbers, not addresses, so the run ending at the top
// of the 4 GiB space fits.
type extent struct {
	lo, hi uint32
	prot   Prot
}

// AddressSpace is one simulated process's view of memory.  The zero value
// is not usable; call New.
//
// The page table is two structures: the mapped pages as disjoint,
// sorted extents, and the contents of only those pages that have been
// written.  Mapping, unmapping or protecting a range costs the runs it
// touches, not its pages, so a 2 GiB reservation is as cheap as a
// one-page one (an attached chaos injector still draws one decision per
// fresh page); a mapped page that was never written reads as zeros.
type AddressSpace struct {
	// ext holds the mapped pages as runs sorted by lo; no two overlap,
	// and touching runs always differ in protection.
	ext []extent
	// data holds the contents of written pages, keyed by page number.
	// Every key is a mapped page: unmapping a page drops its contents.
	data map[uint32]*[PageSize]byte

	// userNext is the bump pointer for Alloc within the user arena.
	userNext Addr
	// sysNext is the bump pointer for AllocSystem within the system arena.
	sysNext Addr

	// allocs tracks live Alloc'd blocks so Free can unmap precisely and
	// so "pointer to freed memory" test values behave faithfully.
	allocs map[Addr]uint32 // base -> size

	// quota bounds total mapped bytes when nonzero (heavy-load testing);
	// mapped tracks the current total.
	quota, mapped uint64

	// stats, when non-nil, accumulates activity counters (typically the
	// owning kernel's machine-wide mem.Stats).
	stats *Stats

	// inj, when non-nil, deterministically injects commit failures at
	// the Map fault point (the owning kernel attaches it).
	inj *chaos.Injector

	// extBuf backs ext until a process maps more runs than it holds, so
	// a typical case's page table costs no allocation of its own.
	extBuf [8]extent
}

// SetInjector attaches a chaos injector session; nil detaches it.
func (as *AddressSpace) SetInjector(in *chaos.Injector) { as.inj = in }

// SetStats attaches a counter sink; nil detaches it.
func (as *AddressSpace) SetStats(s *Stats) { as.stats = s }

// SetQuota bounds the total mapped bytes of this address space; 0 removes
// the bound.  Used by the heavy-load campaign mode.
func (as *AddressSpace) SetQuota(bytes uint64) { as.quota = bytes }

// MappedBytes reports the currently mapped total.
func (as *AddressSpace) MappedBytes() uint64 { return as.mapped }

// New creates an empty address space with nothing mapped.
func New() *AddressSpace {
	as := &AddressSpace{
		userNext: UserBase,
		sysNext:  SystemBase + 0x01000000, // leave a window of unmapped system arena
	}
	as.ext = as.extBuf[:0]
	return as
}

func pageNum(a Addr) uint32 { return uint32(a) >> PageShift }

func pageOff(a Addr) uint32 { return uint32(a) & (PageSize - 1) }

// pageRange returns the page numbers [lo, hi) intersecting
// [addr, addr+size), or ok=false when size is zero or the range wraps.
func pageRange(addr Addr, size uint32) (lo, hi uint32, ok bool) {
	end := addr + Addr(size-1)
	if size == 0 || end < addr {
		return 0, 0, false
	}
	return pageNum(addr), pageNum(end) + 1, true
}

// find returns the index of the first run ending after page pn: the run
// holding pn if it is mapped, else the next run above it.
func (as *AddressSpace) find(pn uint32) int {
	return sort.Search(len(as.ext), func(i int) bool { return as.ext[i].hi > pn })
}

// lookup returns the run holding page pn, if it is mapped.
func (as *AddressSpace) lookup(pn uint32) (extent, bool) {
	i := as.find(pn)
	if i < len(as.ext) && as.ext[i].lo <= pn {
		return as.ext[i], true
	}
	return extent{}, false
}

// lacking returns the first page of [lo, hi) that is unmapped or mapped
// without every bit of need, or hi when there is none.
func (as *AddressSpace) lacking(lo, hi uint32, need Prot) uint32 {
	cur := lo
	for i := as.find(lo); i < len(as.ext) && cur < hi; i++ {
		if e := as.ext[i]; e.lo <= cur && e.prot&need == need {
			cur = e.hi
		} else {
			break
		}
	}
	return min(cur, hi)
}

// count returns how many pages of [lo, hi) are mapped, and how many of
// those are mapped with a protection other than prot.
func (as *AddressSpace) count(lo, hi uint32, prot Prot) (mapped, differ uint32) {
	for i := as.find(lo); i < len(as.ext) && as.ext[i].lo < hi; i++ {
		e := as.ext[i]
		n := min(e.hi, hi) - max(e.lo, lo)
		mapped += n
		if e.prot != prot {
			differ += n
		}
	}
	return mapped, differ
}

// paint maps pages [lo, hi) as one run of prot, or unmaps them when
// unmap is set.  It splits the runs the range cuts and merges the result
// with touching runs of equal protection; page contents are untouched.
func (as *AddressSpace) paint(lo, hi uint32, prot Prot, unmap bool) {
	i := as.find(lo)
	j := i
	for j < len(as.ext) && as.ext[j].lo < hi {
		j++
	}
	// The replacement for runs [i, j): the left neighbour if it touches
	// lo, the cut run's part below lo, the painted run, the cut run's
	// part above hi, and the right neighbour if it touches hi.
	var buf [5]extent
	n := 0
	start, end := i, j
	if i > 0 && as.ext[i-1].hi == lo {
		start--
		buf[n] = as.ext[start]
		n++
	}
	if i < j && as.ext[i].lo < lo {
		buf[n] = extent{as.ext[i].lo, lo, as.ext[i].prot}
		n++
	}
	if !unmap {
		buf[n] = extent{lo, hi, prot}
		n++
	}
	if i < j && as.ext[j-1].hi > hi {
		buf[n] = extent{hi, as.ext[j-1].hi, as.ext[j-1].prot}
		n++
	}
	if j < len(as.ext) && as.ext[j].lo == hi {
		buf[n] = as.ext[j]
		n++
		end++
	}
	m := 0
	for _, e := range buf[:n] {
		if m > 0 && buf[m-1].hi == e.lo && buf[m-1].prot == e.prot {
			buf[m-1].hi = e.hi
			continue
		}
		buf[m] = e
		m++
	}
	as.ext = slices.Replace(as.ext, start, end, buf[:m]...)
}

// Map maps [addr, addr+size) with the given protection, rounding outward
// to page boundaries.  Mapping over an existing page replaces its
// protection but preserves its contents.
func (as *AddressSpace) Map(addr Addr, size uint32, prot Prot) error {
	lo, hi, ok := pageRange(addr, size)
	if !ok {
		return ErrBadRange
	}
	resident, _ := as.count(lo, hi, prot)
	fresh := uint64(hi-lo-resident) * PageSize
	if as.quota != 0 && as.mapped+fresh > as.quota {
		return ErrNoSpace
	}
	// Scarcity accounting is per page: a mem.page rule with After=M
	// means exactly M more pages commit machine-wide before the backing
	// store runs dry, however the commits are batched.
	if as.inj != nil {
		for consumed := uint64(0); consumed < fresh; consumed += PageSize {
			if _, ok := as.inj.Fault(chaos.OpMemPage, "page"); ok {
				return ErrNoSpace
			}
		}
	}
	// Committing fresh pages is the fault point: remapping already-
	// resident pages cannot fail for lack of memory.  Multi-page commits
	// report a distinct site so page-pressure rules (large commits fail
	// first) can target them alone.
	if fresh > 0 && as.inj != nil {
		site := "commit"
		if fresh > PageSize {
			site = "commit.multi"
		}
		if _, ok := as.inj.Fault(chaos.OpMemCommit, site); ok {
			return ErrNoSpace
		}
	}
	as.paint(lo, hi, prot, false)
	as.mapped += fresh
	if as.stats != nil {
		as.stats.PagesMapped += fresh / PageSize
	}
	return nil
}

// Unmap removes all pages intersecting [addr, addr+size).
func (as *AddressSpace) Unmap(addr Addr, size uint32) error {
	lo, hi, ok := pageRange(addr, size)
	if !ok {
		return ErrBadRange
	}
	gone, _ := as.count(lo, hi, ProtNone)
	if gone == 0 {
		return nil
	}
	as.paint(lo, hi, ProtNone, true)
	as.mapped -= uint64(gone) * PageSize
	if as.stats != nil {
		as.stats.PagesUnmapped += uint64(gone)
	}
	// Drop the range's contents, walking whichever is smaller: the
	// range's pages or the written pages.
	if hi-lo <= uint32(len(as.data)) {
		for pn := lo; pn < hi; pn++ {
			delete(as.data, pn)
		}
	} else {
		for pn := range as.data {
			if lo <= pn && pn < hi {
				delete(as.data, pn)
			}
		}
	}
	return nil
}

// Protect changes the protection of all pages intersecting
// [addr, addr+size).  It fails with a *Fault if any page is unmapped.
func (as *AddressSpace) Protect(addr Addr, size uint32, prot Prot) error {
	lo, hi, ok := pageRange(addr, size)
	if !ok {
		return ErrBadRange
	}
	if pn := as.lacking(lo, hi, ProtNone); pn < hi {
		return &Fault{Addr: Addr(pn << PageShift), Kind: FaultUnmapped}
	}
	_, differ := as.count(lo, hi, prot)
	if differ == 0 {
		return nil
	}
	as.paint(lo, hi, prot, false)
	if as.stats != nil {
		as.stats.ProtTransitions += uint64(differ)
	}
	return nil
}

// Mapped reports whether every byte of [addr, addr+size) is mapped with at
// least the given protection.
func (as *AddressSpace) Mapped(addr Addr, size uint32, prot Prot) bool {
	lo, hi, ok := pageRange(addr, max(size, 1))
	if !ok {
		return false
	}
	return as.lacking(lo, hi, prot) == hi
}

// ProtAt returns the protection of the page containing a and whether the
// page is mapped.
func (as *AddressSpace) ProtAt(a Addr) (Prot, bool) {
	e, ok := as.lookup(pageNum(a))
	return e.prot, ok
}

// kernelPage is the first page of the kernel range.
const kernelPage = uint32(KernelBase) >> PageShift

func (as *AddressSpace) check(addr Addr, size uint32, write bool) *Fault {
	lo, hi, ok := pageRange(addr, max(size, 1))
	if !ok {
		return &Fault{Addr: addr, Write: write, Kind: FaultUnmapped}
	}
	// Every page of a run faults alike, so the walk probes the first
	// page of each run it crosses, and the kernel range's first page.
	for pn := lo; pn < hi; {
		pa := max(Addr(pn<<PageShift), addr)
		e, f := as.probe(pa, write)
		if f != nil {
			return f
		}
		if pn < kernelPage && e.hi > kernelPage {
			pn = kernelPage
		} else {
			pn = e.hi
		}
	}
	return nil
}

// probe returns the run holding a if a user-mode access of the given
// direction may touch it, or the fault that access raises at a.
func (as *AddressSpace) probe(a Addr, write bool) (extent, *Fault) {
	if RegionOf(a) == RegionKernel {
		return extent{}, &Fault{Addr: a, Write: write, Kind: FaultKernelRange}
	}
	e, ok := as.lookup(pageNum(a))
	if !ok {
		return extent{}, &Fault{Addr: a, Write: write, Kind: FaultUnmapped}
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if e.prot&need != need {
		return extent{}, &Fault{Addr: a, Write: write, Kind: FaultProtection}
	}
	return e, nil
}

// zeroPage stands in for the contents of a mapped page that was never
// written, so scans need not allocate it.  It is never written.
var zeroPage [PageSize]byte

// Read copies size bytes starting at addr.  On fault, it returns the fault
// and no data.
func (as *AddressSpace) Read(addr Addr, size uint32) ([]byte, *Fault) {
	if f := as.check(addr, size, false); f != nil {
		as.countFault()
		return nil, f
	}
	out := make([]byte, size)
	as.copyOut(out, addr)
	return out, nil
}

// readInto fills dst from memory at addr, with Read's fault semantics.
func (as *AddressSpace) readInto(dst []byte, addr Addr) *Fault {
	if f := as.check(addr, uint32(len(dst)), false); f != nil {
		as.countFault()
		return f
	}
	as.copyOut(dst, addr)
	return nil
}

// copyOut copies already-checked memory at addr into dst.  A page that
// was never written reads as zeros, which dst must already hold.
func (as *AddressSpace) copyOut(dst []byte, addr Addr) {
	var done uint32
	for done < uint32(len(dst)) {
		a := addr + Addr(done)
		off := pageOff(a)
		n := min(uint32(len(dst))-done, PageSize-off)
		if d := as.data[pageNum(a)]; d != nil {
			copy(dst[done:done+n], d[off:])
		}
		done += n
	}
}

func (as *AddressSpace) countFault() {
	if as.stats != nil {
		as.stats.Faults++
	}
}

// Write copies data into memory starting at addr.
func (as *AddressSpace) Write(addr Addr, data []byte) *Fault {
	if len(data) == 0 {
		return nil
	}
	if f := as.check(addr, uint32(len(data)), true); f != nil {
		as.countFault()
		return f
	}
	if as.data == nil {
		as.data = make(map[uint32]*[PageSize]byte)
	}
	var done uint32
	for done < uint32(len(data)) {
		a := addr + Addr(done)
		d := as.data[pageNum(a)]
		if d == nil {
			d = new([PageSize]byte)
			as.data[pageNum(a)] = d
		}
		done += uint32(copy(d[pageOff(a):], data[done:]))
	}
	return nil
}

// ReadU8 reads one byte.
func (as *AddressSpace) ReadU8(addr Addr) (byte, *Fault) {
	var b [1]byte
	if f := as.readInto(b[:], addr); f != nil {
		return 0, f
	}
	return b[0], nil
}

// WriteU8 writes one byte.
func (as *AddressSpace) WriteU8(addr Addr, v byte) *Fault {
	return as.Write(addr, []byte{v})
}

// ReadU16 reads a little-endian 16-bit value.
func (as *AddressSpace) ReadU16(addr Addr) (uint16, *Fault) {
	var b [2]byte
	if f := as.readInto(b[:], addr); f != nil {
		return 0, f
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

// WriteU16 writes a little-endian 16-bit value.
func (as *AddressSpace) WriteU16(addr Addr, v uint16) *Fault {
	return as.Write(addr, []byte{byte(v), byte(v >> 8)})
}

// ReadU32 reads a little-endian 32-bit value.
func (as *AddressSpace) ReadU32(addr Addr) (uint32, *Fault) {
	var b [4]byte
	if f := as.readInto(b[:], addr); f != nil {
		return 0, f
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes a little-endian 32-bit value.
func (as *AddressSpace) WriteU32(addr Addr, v uint32) *Fault {
	return as.Write(addr, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// ReadU64 reads a little-endian 64-bit value.
func (as *AddressSpace) ReadU64(addr Addr) (uint64, *Fault) {
	lo, f := as.ReadU32(addr)
	if f != nil {
		return 0, f
	}
	hi, f := as.ReadU32(addr + 4)
	if f != nil {
		return 0, f
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// WriteU64 writes a little-endian 64-bit value.
func (as *AddressSpace) WriteU64(addr Addr, v uint64) *Fault {
	if f := as.WriteU32(addr, uint32(v)); f != nil {
		return f
	}
	return as.WriteU32(addr+4, uint32(v>>32))
}

// CStringLimit bounds CString scans so a missing terminator cannot loop
// over the whole 4 GiB space.
const CStringLimit = 1 << 20

// CString reads a NUL-terminated byte string starting at addr.  Reading
// runs until a NUL, a fault, or CStringLimit bytes.  It scans a page at a
// time; a fault is reported at the first unreadable byte, exactly as a
// byte-by-byte read would raise it.
func (as *AddressSpace) CString(addr Addr) (string, *Fault) {
	var buf []byte
	a := addr
	for left := uint32(CStringLimit); left > 0; {
		b, f := as.span(a, left)
		if f != nil {
			return "", f
		}
		if i := bytes.IndexByte(b, 0); i >= 0 {
			if buf == nil {
				return string(b[:i]), nil
			}
			return string(append(buf, b[:i]...)), nil
		}
		buf = append(buf, b...)
		a += Addr(len(b))
		left -= uint32(len(b))
	}
	return string(buf), nil
}

// span returns the readable bytes from a to the end of its page, at
// most limit of them, or the fault a one-byte read at a raises.
func (as *AddressSpace) span(a Addr, limit uint32) ([]byte, *Fault) {
	if _, f := as.probe(a, false); f != nil {
		as.countFault()
		return nil, f
	}
	d := as.data[pageNum(a)]
	if d == nil {
		d = &zeroPage
	}
	b := d[pageOff(a):]
	if uint32(len(b)) > limit {
		b = b[:limit]
	}
	return b, nil
}

// WString reads a NUL-terminated little-endian UTF-16 string (as used by
// the UNICODE Win32/CE surface) starting at addr, returning its UTF-16
// code units.  Like CString it scans a page at a time; a unit that
// straddles two pages (an odd address at a page's last byte) is read on
// its own so its fault, if any, is the one a ReadU16 raises.
func (as *AddressSpace) WString(addr Addr) ([]uint16, *Fault) {
	var buf []uint16
	a := addr
	for left := uint32(CStringLimit); left > 0; {
		if pageOff(a) == PageSize-1 {
			u, f := as.ReadU16(a)
			if f != nil {
				return nil, f
			}
			if u == 0 {
				return buf, nil
			}
			buf = append(buf, u)
			a += 2
			left--
			continue
		}
		b, f := as.span(a, 2*left)
		if f != nil {
			return nil, f
		}
		for i := 0; i+1 < len(b); i += 2 {
			u := uint16(b[i]) | uint16(b[i+1])<<8
			if u == 0 {
				return buf, nil
			}
			buf = append(buf, u)
		}
		units := uint32(len(b) / 2)
		a += Addr(2 * units)
		left -= units
	}
	return buf, nil
}

// WriteCString writes s followed by a NUL byte.
func (as *AddressSpace) WriteCString(addr Addr, s string) *Fault {
	b := make([]byte, len(s)+1)
	copy(b, s)
	return as.Write(addr, b)
}

// Alloc maps a fresh block of at least size bytes in the user arena and
// returns its base address.  Each block is padded to page granularity with
// an unmapped guard page after it, so one-past-the-end overruns fault.
func (as *AddressSpace) Alloc(size uint32, prot Prot) (Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	base := as.userNext
	span := Addr(pages+1) * PageSize // +1 guard page
	if base+span < base || base+span > UserTop {
		return 0, ErrNoSpace
	}
	if err := as.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	as.userNext = base + span
	as.track(base, pages*PageSize)
	if as.stats != nil {
		as.stats.Allocs++
	}
	return base, nil
}

// AllocSystem maps a block inside the shared system arena.  Only Win9x/CE
// kernels place user-visible structures there; it exists so test values
// can craft pointers into the shared arena.
func (as *AddressSpace) AllocSystem(size uint32, prot Prot) (Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	base := as.sysNext
	span := Addr(pages+1) * PageSize
	if base+span < base || base+span > SystemTop {
		return 0, ErrNoSpace
	}
	if err := as.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	as.sysNext = base + span
	as.track(base, pages*PageSize)
	if as.stats != nil {
		as.stats.Allocs++
	}
	return base, nil
}

// track records a live block for Free and BlockSize.
func (as *AddressSpace) track(base Addr, size uint32) {
	if as.allocs == nil {
		as.allocs = make(map[Addr]uint32)
	}
	as.allocs[base] = size
}

// Free unmaps a block previously returned by Alloc or AllocSystem.  The
// address then faults on access, which "pointer to freed memory" test
// values rely on.
func (as *AddressSpace) Free(base Addr) error {
	size, ok := as.allocs[base]
	if !ok {
		return fmt.Errorf("mem: Free(%#08x): %w", uint32(base), ErrBadRange)
	}
	delete(as.allocs, base)
	if as.stats != nil {
		as.stats.Frees++
	}
	return as.Unmap(base, size)
}

// BlockSize returns the size of a live allocation, or 0 if base is not a
// live allocation base.
func (as *AddressSpace) BlockSize(base Addr) uint32 {
	return as.allocs[base]
}

// PageCount returns the number of mapped pages (used by tests and the
// leak checker).
func (as *AddressSpace) PageCount() int {
	return int(as.mapped / PageSize)
}
