package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refSplit is the allocating normalizer that split replaced, kept as the
// reference it must match.
func refSplit(path string) ([]string, error) {
	if path == "" || strings.ContainsRune(path, 0) {
		return nil, ErrInvalidPath
	}
	if len(path) >= 2 && path[1] == ':' {
		path = path[2:]
		if path == "" {
			path = "/"
		}
	}
	path = strings.ReplaceAll(path, "\\", "/")
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return out, nil
}

func samePath(t *testing.T, path string) {
	t.Helper()
	want, wantErr := refSplit(path)
	var buf [maxDepth]string
	got, err := split(buf[:0], path)
	if !errors.Is(err, wantErr) || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Errorf("split(%q) = %q, %v; reference %q, %v", path, got, err, want, wantErr)
	}
}

func TestSplitMatchesReference(t *testing.T) {
	deep := strings.Repeat("/d", maxDepth+5)
	for _, p := range []string{
		"", "/", "\\", ".", "..", "C:", "c:", "C:\\", "C:/", "C:x", "C:..\\x", "::", "/:x", "x:",
		"a\x00b", "\x00", "C:\x00",
		"/bl/readable.txt", `C:\bl\dir\a.txt`, `\bl/dir\./a.txt`, "bl//dir///a.txt/",
		"/bl/./dir/../dir/f.txt", "/../../x", "..\\..\\..", "/a/b/../../../c", "a/..", "./.", "...", "/.../x",
		"/a/.b/..c/d..", deep, deep + "/../x", deep + strings.Repeat("/..", maxDepth+3) + "/y",
		strings.Repeat("x/", 3*maxDepth),
	} {
		samePath(t, p)
	}

	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"/", "\\", ".", "..", "a", "bc", ":", "C:", "\x00", ""}
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(2 * maxDepth); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		samePath(t, b.String())
	}
}

// TestLookupPastMaxDepth: paths deeper than the walk's fixed buffer
// still resolve (the buffer spills to the heap).
func TestLookupPastMaxDepth(t *testing.T) {
	f := newFS()
	dir := strings.Repeat("/d", maxDepth+4)
	if err := f.MkdirAll(dir, 0o7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(dir+"/leaf", 0o6, false); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Stat(`C:` + strings.ReplaceAll(dir, "/", `\`) + `\x\..\leaf`); err != nil || n.Name() != "leaf" {
		t.Errorf("deep Stat: %v", err)
	}
}

// TestMkdirAllWalk pins MkdirAll's results against existing entries: an
// existing file as the last component is accepted, one in the middle
// is ErrNotDir, and ".." and drive prefixes normalize first.
func TestMkdirAllWalk(t *testing.T) {
	f := newFS()
	if _, err := f.Create("/file", 0o6, false); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		path string
		want error
	}{
		{"/file", nil},
		{"/file/sub", ErrNotDir},
		{`C:\a\b\..\c`, nil},
		{"", ErrInvalidPath},
		{"/", nil},
	} {
		if err := f.MkdirAll(tt.path, 0o7); !errors.Is(err, tt.want) {
			t.Errorf("MkdirAll(%q) = %v, want %v", tt.path, err, tt.want)
		}
	}
	for _, p := range []string{"/a/c", "/a"} {
		if n, err := f.Stat(p); err != nil || !n.IsDir() {
			t.Errorf("%s: %v", p, err)
		}
	}
	if _, err := f.Stat("/a/b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("/a/b should not exist: %v", err)
	}
}

// fixtureTree builds the shape of the suites' fixture tree and returns
// the paths a case looks up, in both path styles.
func fixtureTree(tb testing.TB) (*FileSystem, []string) {
	tb.Helper()
	f := newFS()
	paths := []string{"/bl/readable.txt", "/bl/writable.txt", "/bl/readonly.txt",
		"/bl/dir/a.txt", "/bl/dir/b.txt", "/bl/dir/c.dat", "/bin/true"}
	for _, d := range []string{"/bl/dir", "/bin", "/home/ballista", "/scratch", "/tmp"} {
		if err := f.MkdirAll(d, 0o7); err != nil {
			tb.Fatal(err)
		}
	}
	for _, p := range paths {
		if _, err := f.Create(p, 0o6, false); err != nil {
			tb.Fatal(err)
		}
	}
	return f, append(paths, "/bl", "/bl/dir", `C:\bl\dir\a.txt`, "/scratch", "/tmp", "/bl/missing")
}

func BenchmarkStat(b *testing.B) {
	f, paths := fixtureTree(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = f.Stat(paths[i%len(paths)])
	}
}

func BenchmarkTruncateGrow(b *testing.B) {
	for _, size := range []int64{1 << 12, 0x7FFFFFFF} {
		b.Run(fmt.Sprintf("size=%#x", size), func(b *testing.B) {
			f := newFS()
			n, _ := f.Create("/x", 0o6, false)
			of, _ := f.Open("/x", true, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.SetData([]byte("fixture\n"))
				_ = of.Truncate(size)
			}
		})
	}
}
