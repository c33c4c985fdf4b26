package fs

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"ballista/internal/chaos"
)

func newFS() *FileSystem { return New(nil) }

func TestCreateStatRemove(t *testing.T) {
	f := newFS()
	if err := f.MkdirAll("/a/b", 0o7); err != nil {
		t.Fatal(err)
	}
	n, err := f.Create("/a/b/x.txt", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	n.SetData([]byte("hi"))
	got, err := f.Stat("/a/b/x.txt")
	if err != nil || got.Size() != 2 {
		t.Fatalf("Stat: %v size %d", err, got.Size())
	}
	if err := f.Remove("/a/b/x.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/a/b/x.txt"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after Remove, Stat err = %v", err)
	}
}

func TestPathStyles(t *testing.T) {
	f := newFS()
	if err := f.MkdirAll("/bl/dir", 0o7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("/bl/dir/f.txt", 0o6, false); err != nil {
		t.Fatal(err)
	}
	// Windows style resolves to the same node.
	for _, p := range []string{`C:\bl\dir\f.txt`, `\bl\dir\f.txt`, "/bl/./dir/../dir/f.txt"} {
		if _, err := f.Stat(p); err != nil {
			t.Errorf("Stat(%q): %v", p, err)
		}
	}
}

func TestSplitInvalid(t *testing.T) {
	if _, err := split(nil, ""); !errors.Is(err, ErrInvalidPath) {
		t.Error("empty path should be invalid")
	}
	if _, err := split(nil, "a\x00b"); !errors.Is(err, ErrInvalidPath) {
		t.Error("NUL in path should be invalid")
	}
}

func TestMkdirErrors(t *testing.T) {
	f := newFS()
	if err := f.Mkdir("/d", 0o7); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/d", 0o7); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Mkdir: %v", err)
	}
	if err := f.Mkdir("/no/such/parent", 0o7); !errors.Is(err, ErrNotFound) {
		t.Errorf("Mkdir without parent: %v", err)
	}
}

func TestRmdir(t *testing.T) {
	f := newFS()
	_ = f.MkdirAll("/d/e", 0o7)
	if err := f.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("Rmdir non-empty: %v", err)
	}
	if err := f.Rmdir("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/"); !errors.Is(err, ErrPerm) {
		t.Errorf("Rmdir root: %v", err)
	}
	if _, err := f.Create("/f", 0o6, false); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("Rmdir on file: %v", err)
	}
}

func TestRename(t *testing.T) {
	f := newFS()
	_ = f.MkdirAll("/a", 0o7)
	_ = f.MkdirAll("/b", 0o7)
	n, _ := f.Create("/a/x", 0o6, false)
	n.SetData([]byte("payload"))
	if err := f.Rename("/a/x", "/b/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/a/x"); err == nil {
		t.Error("source still present after Rename")
	}
	got, err := f.Stat("/b/y")
	if err != nil || string(got.Bytes()) != "payload" {
		t.Errorf("target: %v %q", err, got.Bytes())
	}
}

func TestReadOnlyEnforcement(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/ro", 0o4, false)
	n.Attrs |= AttrReadOnly
	if err := f.Remove("/ro"); !errors.Is(err, ErrPerm) {
		t.Errorf("Remove read-only: %v", err)
	}
	if _, err := f.Open("/ro", false, true); !errors.Is(err, ErrPerm) {
		t.Errorf("Open read-only for write: %v", err)
	}
	if _, err := f.Open("/ro", true, false); err != nil {
		t.Errorf("Open read-only for read: %v", err)
	}
}

func TestOpenFileIO(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	n.SetData([]byte("0123456789"))
	of, err := f.Open("/x", true, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	got, err := of.Read(buf)
	if err != nil || got != 4 || string(buf) != "0123" {
		t.Fatalf("Read: %d %v %q", got, err, buf)
	}
	if _, err := of.Seek(8, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Write([]byte("ZZZZ")); err != nil {
		t.Fatal(err)
	}
	if string(n.Bytes()) != "01234567ZZZZ" {
		t.Errorf("after write: %q", n.Bytes())
	}
	if _, err := of.Seek(-100, SeekCur); err == nil {
		t.Error("negative seek should fail")
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Read(buf); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: %v", err)
	}
	if err := of.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	n.SetData([]byte("0123456789"))
	of, _ := f.Open("/x", true, true)
	if err := of.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if string(n.Bytes()) != "0123" {
		t.Errorf("Truncate(4): %q", n.Bytes())
	}
	if err := of.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 8 {
		t.Errorf("Truncate(8) size %d, want 8", n.Size())
	}
	// Reading back through the descriptor sees the old bytes and then
	// zeros, not the "456789" the shrink dropped.
	buf := make([]byte, 16)
	got, err := of.Read(buf)
	if err != nil || string(buf[:got]) != "0123\x00\x00\x00\x00" {
		t.Errorf("read after Truncate(8): %d %v %q", got, err, buf[:got])
	}
}

// TestSparseGrowth: growing a file to the 0x7FFFFFFF boundary the test
// suites pass to ftruncate costs no memory, yet Size, reads, SeekEnd and
// appends all see the full logical length.
func TestSparseGrowth(t *testing.T) {
	const big = 0x7FFFFFFF
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	n.SetData([]byte("head"))
	of, _ := f.Open("/x", true, true)
	if err := of.Truncate(big); err != nil {
		t.Fatal(err)
	}
	if n.Size() != big {
		t.Fatalf("Size = %d, want %d", n.Size(), big)
	}
	if len(n.data) != 4 || n.zeros != big-4 {
		t.Fatalf("growth materialized: %d bytes + %d zeros", len(n.data), n.zeros)
	}
	if !strings.Contains(f.String(), "x (2147483647 bytes)") {
		t.Errorf("String does not report the logical size:\n%s", f.String())
	}

	// A read straddling EOF returns the zero tail up to the end.
	if _, err := of.Seek(big-3, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := []byte("????????")
	got, err := of.Read(buf)
	if err != nil || got != 3 || string(buf) != "\x00\x00\x00?????" {
		t.Errorf("read at end: %d %v %q", got, err, buf)
	}
	if got, err := of.Read(buf); got != 0 || err != nil {
		t.Errorf("read at EOF: %d %v", got, err)
	}
	if pos, err := of.Seek(0, SeekEnd); err != nil || pos != big {
		t.Errorf("SeekEnd = %d %v, want %d", pos, err, big)
	}

	// An append is positioned after the zero tail.  The write is failed
	// by an fs.write fault, which strikes after the append seek but
	// before any growth, so the test need not materialize 2 GiB.
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Op: chaos.OpFSWrite, RatePerMille: 1000}}}
	f.SetInjector(plan.NewInjector(nil))
	if _, err := of.Seek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	of.Append = true
	if _, err := of.Write([]byte("!")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("faulted append: %v", err)
	}
	if of.Pos() != big || n.Size() != big || len(n.data) != 4 {
		t.Errorf("append: pos %d size %d, %d bytes materialized", of.Pos(), n.Size(), len(n.data))
	}
}

// TestZeroTailWriteSkipsDiskFault: writing inside a truncate-grown zero
// tail rewrites existing file space, so it consumes no fs.disk decision;
// a write past Size grows the file and consumes one.  The decision
// stream is the same as when growth materialized the tail.
func TestZeroTailWriteSkipsDiskFault(t *testing.T) {
	// fs.disk hit 0 is the Create; every later hit fires.
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpFSDisk, RatePerMille: 1000, After: 1},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	f := newFS()
	f.SetInjector(plan.NewInjector(nil))
	n, err := f.Create("/x", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	of, _ := f.Open("/x", true, true)
	if err := of.Truncate(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Seek(1000, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Write([]byte("inside")); err != nil {
		t.Fatalf("write into the zero tail consumed a disk decision: %v", err)
	}
	if int64(len(n.data)) != 1006 || n.Size() != 1<<20 {
		t.Errorf("tail write: %d bytes materialized, size %d", len(n.data), n.Size())
	}
	if _, err := of.Seek(0, SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Write([]byte("past")); !errors.Is(err, ErrNoSpace) {
		t.Errorf("write past Size: %v, want ErrNoSpace", err)
	}
	if n.Size() != 1<<20 {
		t.Errorf("failed growth changed the size to %d", n.Size())
	}
}

// TestCreateTruncClearsZeroTail: truncating re-creation empties a file,
// zero tail included.
func TestCreateTruncClearsZeroTail(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	n.SetData([]byte("data"))
	of, _ := f.Open("/x", true, true)
	_ = of.Truncate(1 << 30)
	if _, err := f.Create("/x", 0o6, true); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 0 {
		t.Errorf("Create(trunc) left size %d", n.Size())
	}
}

// TestNodeContentAccessors pins the read accessors over a node with a
// zero tail.
func TestNodeContentAccessors(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	n.SetData([]byte("ab"))
	of, _ := f.Open("/x", true, true)
	_ = of.Truncate(4)
	for _, tt := range []struct {
		s    string
		want bool
	}{
		{"ab\x00\x00", true},
		{"ab", false},
		{"ab\x00", false},
		{"ab\x00\x00\x00", false},
		{"ab\x00x", false},
		{"xb\x00\x00", false},
	} {
		if got := n.HasContent(tt.s); got != tt.want {
			t.Errorf("HasContent(%q) = %v, want %v", tt.s, got, tt.want)
		}
	}
	if string(n.Bytes()) != "ab\x00\x00" {
		t.Errorf("Bytes = %q", n.Bytes())
	}
	m, _ := f.Create("/y", 0o6, false)
	m.CopyData(n)
	if m.Size() != 4 || len(m.data) != 2 || !m.HasContent("ab\x00\x00") {
		t.Errorf("CopyData: size %d, %d bytes materialized", m.Size(), len(m.data))
	}
	p := []byte("????")
	if got := n.ReadAt(p, 1); got != 3 || string(p) != "b\x00\x00?" {
		t.Errorf("ReadAt(1) = %d %q", got, p)
	}
}

func TestLocks(t *testing.T) {
	f := newFS()
	_, _ = f.Create("/x", 0o6, false)
	a, _ := f.Open("/x", true, true)
	b, _ := f.Open("/x", true, true)
	if err := a.Lock(0, 10, true); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(5, 10, true); !errors.Is(err, ErrLocked) {
		t.Errorf("overlapping lock: %v", err)
	}
	// The owner can write its own locked range; a foreign handle cannot.
	if _, err := a.Write([]byte("own")); err != nil {
		t.Errorf("owner write: %v", err)
	}
	if _, err := b.Write([]byte("foreign")); !errors.Is(err, ErrLocked) {
		t.Errorf("foreign write into locked range: %v", err)
	}
	if err := a.Unlock(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("now ok")); err != nil {
		t.Errorf("write after unlock: %v", err)
	}
	if err := a.Unlock(0, 10); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unlock: %v", err)
	}
}

func TestLocksReleasedOnClose(t *testing.T) {
	f := newFS()
	_, _ = f.Create("/x", 0o6, false)
	a, _ := f.Open("/x", true, true)
	b, _ := f.Open("/x", true, true)
	_ = a.Lock(0, 100, true)
	_ = a.Close()
	if _, err := b.Write([]byte("freed")); err != nil {
		t.Errorf("lock should die with its handle: %v", err)
	}
}

func TestGlobMatch(t *testing.T) {
	tests := []struct {
		pattern, name string
		want          bool
	}{
		{"*", "anything", true},
		{"*.txt", "a.txt", true},
		{"*.txt", "a.dat", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"A*.TXT", "a1.txt", true}, // case-insensitive, Win32 style
		{"*x*", "axb", true},
		{"", "", true},
		{"", "a", false},
	}
	for _, tt := range tests {
		if got := Match(tt.pattern, tt.name); got != tt.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tt.pattern, tt.name, got, tt.want)
		}
	}
}

func TestGlob(t *testing.T) {
	f := newFS()
	_ = f.MkdirAll("/d", 0o7)
	for _, name := range []string{"a.txt", "b.txt", "c.dat"} {
		if _, err := f.Create("/d/"+name, 0o6, false); err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := f.Glob("/d", "*.txt")
	if err != nil || len(nodes) != 2 {
		t.Fatalf("Glob: %v, %d nodes", err, len(nodes))
	}
	if nodes[0].Name() != "a.txt" || nodes[1].Name() != "b.txt" {
		t.Errorf("Glob order: %s, %s", nodes[0].Name(), nodes[1].Name())
	}
}

func TestDeleteOnClose(t *testing.T) {
	f := newFS()
	_, _ = f.Create("/tmpf", 0o6, false)
	of, _ := f.Open("/tmpf", true, true)
	of.DeleteOnC = true
	_ = of.Close()
	if _, err := f.Stat("/tmpf"); err == nil {
		t.Error("DeleteOnClose file still present")
	}
}

// TestSplitNormalizationProperty: split is idempotent under re-joining.
func TestSplitNormalizationProperty(t *testing.T) {
	prop := func(parts []string) bool {
		path := "/"
		for _, p := range parts {
			if p == "" || len(p) > 20 {
				return true // skip degenerate inputs
			}
			for _, ch := range p {
				if ch == '/' || ch == '\\' || ch == 0 || ch == '.' {
					return true
				}
			}
			path += p + "/"
		}
		a, err := split(nil, path)
		if err != nil {
			return false
		}
		b, err := split(nil, "/"+joinSlash(a))
		if err != nil {
			return false
		}
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
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func joinSlash(parts []string) string {
	out := ""
	for _, p := range parts {
		out += p + "/"
	}
	return out
}
