package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refCString is the byte-at-a-time CString that the page-at-a-time scan
// replaced, kept as the reference it must match.
func refCString(as *AddressSpace, addr Addr) (string, *Fault) {
	var buf []byte
	for i := uint32(0); i < CStringLimit; i++ {
		b, f := as.Read(addr+Addr(i), 1)
		if f != nil {
			return "", f
		}
		if b[0] == 0 {
			return string(buf), nil
		}
		buf = append(buf, b[0])
	}
	return string(buf), nil
}

// refWString is the unit-at-a-time WString reference.
func refWString(as *AddressSpace, addr Addr) ([]uint16, *Fault) {
	var buf []uint16
	for i := uint32(0); i < CStringLimit; i++ {
		b, f := as.Read(addr+Addr(2*i), 2)
		if f != nil {
			return nil, f
		}
		u := uint16(b[0]) | uint16(b[1])<<8
		if u == 0 {
			return buf, nil
		}
		buf = append(buf, u)
	}
	return buf, nil
}

// sameCopyIn runs the scan and the reference from addr and fails the
// test on any difference in result, fault or fault count.
func sameCopyIn(t *testing.T, as *AddressSpace, name string, addr Addr) {
	t.Helper()
	st := &Stats{}
	as.SetStats(st)
	defer as.SetStats(nil)

	want, wantF := refCString(as, addr)
	refFaults := st.Faults
	got, gotF := as.CString(addr)
	if got != want || !reflect.DeepEqual(gotF, wantF) || st.Faults-refFaults != refFaults {
		t.Errorf("%s: CString(%#x) = %d bytes, %v (faults %d); reference %d bytes, %v (faults %d)",
			name, uint32(addr), len(got), gotF, st.Faults-refFaults, len(want), wantF, refFaults)
	}

	st.Faults = 0
	wantW, wantWF := refWString(as, addr)
	refFaults = st.Faults
	gotW, gotWF := as.WString(addr)
	if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(gotWF, wantWF) || st.Faults-refFaults != refFaults {
		t.Errorf("%s: WString(%#x) = %d units, %v (faults %d); reference %d units, %v (faults %d)",
			name, uint32(addr), len(gotW), gotWF, st.Faults-refFaults, len(wantW), wantWF, refFaults)
	}
}

// fill writes n copies of b at addr.
func fill(t *testing.T, as *AddressSpace, addr Addr, n int, b byte) {
	t.Helper()
	if f := as.Write(addr, bytes.Repeat([]byte{b}, n)); f != nil {
		t.Fatal(f)
	}
}

func TestCopyInMatchesReference(t *testing.T) {
	const base = UserBase
	for _, tt := range []struct {
		name  string
		setup func(t *testing.T, as *AddressSpace)
		addrs []Addr
	}{
		{
			name: "page-straddling string",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(base, 2*PageSize, ProtRW)
				fill(t, as, base+PageSize-10, 30, 'a')
			},
			addrs: []Addr{base + PageSize - 10, base + PageSize - 9, base + PageSize - 1, base + PageSize},
		},
		{
			name: "terminator on the last byte of a page",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(base, 2*PageSize, ProtRW)
				fill(t, as, base, 2*PageSize, 'b')
				_ = as.WriteU8(base+PageSize-1, 0)
				_ = as.WriteU16(base+2*PageSize-2, 0)
			},
			addrs: []Addr{base, base + 1, base + PageSize - 2, base + PageSize - 1, base + PageSize},
		},
		{
			name: "guard page after an unterminated block",
			setup: func(t *testing.T, as *AddressSpace) {
				a, _ := as.Alloc(2*PageSize, ProtRW)
				fill(t, as, a, 2*PageSize, 'c')
			},
			addrs: []Addr{base, base + 7, base + PageSize + 1, base + 2*PageSize - 1, base + 2*PageSize},
		},
		{
			name: "system arena running into the kernel range",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(KernelBase-PageSize, 2*PageSize, ProtRW)
				fill(t, as, KernelBase-PageSize, PageSize, 'd')
			},
			addrs: []Addr{KernelBase - PageSize, KernelBase - 3, KernelBase - 1, KernelBase, KernelBase + 1, 0xFFFFFFFF},
		},
		{
			name:  "null page and unmapped user memory",
			setup: func(t *testing.T, as *AddressSpace) {},
			addrs: []Addr{0, 1, NullTop, base, 0x7FFFFFFF},
		},
		{
			name: "protection faults",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(base, 3*PageSize, ProtRW)
				fill(t, as, base, 2*PageSize, 'e')
				_ = as.Protect(base+PageSize, PageSize, ProtWrite)
				_ = as.Protect(base+2*PageSize, PageSize, ProtNone)
			},
			addrs: []Addr{base, base + PageSize - 1, base + PageSize, base + 2*PageSize},
		},
		{
			name: "never-written pages read as terminators",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(base, 3*PageSize, ProtRW)
				fill(t, as, base+PageSize-5, 5, 'f')
			},
			addrs: []Addr{base, base + PageSize - 5, base + PageSize - 4, base + PageSize, base + 2*PageSize + 9},
		},
		{
			name: "odd-address wide units straddling into a faulting page",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(base, PageSize, ProtRW)
				fill(t, as, base, PageSize, 'g')
				_ = as.Map(KernelBase-PageSize, PageSize, ProtRW)
				fill(t, as, KernelBase-PageSize, PageSize, 'h')
				_ = as.Map(base+4*PageSize, 2*PageSize, ProtRW)
				fill(t, as, base+4*PageSize, PageSize, 'i')
				_ = as.Protect(base+5*PageSize, PageSize, ProtNone)
			},
			addrs: []Addr{
				base + 1, base + PageSize - 1, KernelBase - PageSize + 1, KernelBase - 1,
				base + 4*PageSize + 3, base + 5*PageSize - 1,
			},
		},
		{
			name: "odd-address wide terminator straddling two pages",
			setup: func(t *testing.T, as *AddressSpace) {
				_ = as.Map(base, 2*PageSize, ProtRW)
				fill(t, as, base, 2*PageSize, 'j')
				_ = as.WriteU16(base+PageSize-1, 0)
			},
			addrs: []Addr{base + 1, base + 3, base + PageSize - 1, base + PageSize - 3},
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			as := New()
			tt.setup(t, as)
			for _, a := range tt.addrs {
				sameCopyIn(t, as, tt.name, a)
			}
		})
	}
}

// TestCopyInLimit: an unterminated string stops at CStringLimit without
// reading (or faulting on) the byte after it, for narrow and wide scans
// alike.
func TestCopyInLimit(t *testing.T) {
	const base = UserBase
	as := New()
	size := uint32(2 * CStringLimit)
	if err := as.Map(base, size, ProtRW); err != nil {
		t.Fatal(err)
	}
	fill(t, as, base, int(size), 'k')
	// The byte (or unit) right after each limit is unmapped or faults.
	for _, a := range []Addr{base, base + 1, base + PageSize - 1, base + Addr(CStringLimit)} {
		sameCopyIn(t, as, "limit", a)
	}
	s, f := as.CString(base + Addr(CStringLimit))
	if f != nil || len(s) != CStringLimit || strings.Trim(s, "k") != "" {
		t.Errorf("CString at the limit: %d bytes, %v", len(s), f)
	}
	w, f := as.WString(base)
	if f != nil || len(w) != CStringLimit {
		t.Errorf("WString at the limit: %d units, %v", len(w), f)
	}
}

// TestCopyInMatchesReferenceRandom compares the scans with the
// references over random page layouts: unmapped, unreadable,
// never-written and written pages with sparse terminators, next to the
// kernel boundary and in the user arena.
func TestCopyInMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, window := range []Addr{UserBase, KernelBase - 6*PageSize} {
		for trial := 0; trial < 40; trial++ {
			as := New()
			for pg := Addr(0); pg < 6; pg++ {
				at := window + pg*PageSize
				switch rng.Intn(5) {
				case 0: // unmapped
				case 1:
					_ = as.Map(at, PageSize, []Prot{ProtNone, ProtWrite}[rng.Intn(2)])
				case 2:
					_ = as.Map(at, PageSize, ProtRead) // never written
				default:
					_ = as.Map(at, PageSize, ProtRW)
					b := make([]byte, PageSize)
					for i := range b {
						if rng.Intn(1500) != 0 {
							b[i] = byte(1 + rng.Intn(255))
						}
					}
					_ = as.Write(at, b)
					if rng.Intn(3) == 0 {
						_ = as.Protect(at, PageSize, ProtRead)
					}
				}
			}
			for i := 0; i < 30; i++ {
				a := window + Addr(rng.Intn(6*PageSize))
				if rng.Intn(4) == 0 {
					a = window + Addr(rng.Intn(6))*PageSize - Addr(rng.Intn(3))
				}
				sameCopyIn(t, as, "random", a)
			}
		}
	}
}

// TestReadUnwrittenPages pins Read over pages that were never written
// in the masked-memory style: mask the written neighbours with '?',
// read across, and assert the exact buffer.  The unwritten page reads
// as zeros and stays unallocated.
func TestReadUnwrittenPages(t *testing.T) {
	as := New()
	base, err := as.Alloc(3*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	const mask = 4
	fill(t, as, base+PageSize-mask, mask, '?')
	fill(t, as, base+2*PageSize, mask, '?')

	got, f := as.Read(base+PageSize-mask, PageSize+2*mask)
	if f != nil {
		t.Fatal(f)
	}
	want := make([]byte, PageSize+2*mask)
	copy(want, "????")
	copy(want[PageSize+mask:], "????")
	if !bytes.Equal(got, want) {
		t.Errorf("Read across an unwritten page = %q...%q", got[:2*mask], got[len(got)-2*mask:])
	}
	if as.data[pageNum(base+PageSize)] != nil {
		t.Error("Read allocated the unwritten page")
	}

	// A scalar read straddling into the unwritten page picks up the
	// mask bytes and zeros, in little-endian order.
	if v, f := as.ReadU64(base + PageSize - 2); f != nil || v != 0x3F3F {
		t.Errorf("ReadU64 across the boundary = %#x, %v", v, f)
	}
	if v, f := as.ReadU32(base + 2*PageSize - 2); f != nil || v != 0x3F3F0000 {
		t.Errorf("ReadU32 into the masked page = %#x, %v", v, f)
	}
	if as.data[pageNum(base+PageSize)] != nil {
		t.Error("scalar reads allocated the unwritten page")
	}
}

// TestScalarReadsDoNotAllocate: ReadU8/16/32/64 read through a stack
// buffer.
func TestScalarReadsDoNotAllocate(t *testing.T) {
	as := New()
	a, _ := as.Alloc(2*PageSize, ProtRW)
	_ = as.WriteU64(a+PageSize-4, 0x0102030405060708)
	at := a + PageSize - 4 // the 64-bit read straddles two pages
	for name, fn := range map[string]func(){
		"ReadU8":  func() { _, _ = as.ReadU8(at) },
		"ReadU16": func() { _, _ = as.ReadU16(at) },
		"ReadU32": func() { _, _ = as.ReadU32(at) },
		"ReadU64": func() { _, _ = as.ReadU64(at) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

func BenchmarkCString(b *testing.B) {
	for _, bc := range []struct {
		name string
		off  Addr // start offset into a fresh two-page block
		n    int
	}{
		{"short", 0, 16},
		{"page-straddling", PageSize - 40, 80},
		{"long", 0, 2*PageSize - 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			as := New()
			base, _ := as.Alloc(2*PageSize, ProtRW)
			if f := as.WriteCString(base+bc.off, strings.Repeat("s", bc.n)); f != nil {
				b.Fatal(f)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s, _ := as.CString(base + bc.off); len(s) != bc.n {
					b.Fatalf("CString read %d bytes, want %d", len(s), bc.n)
				}
			}
		})
	}
}
