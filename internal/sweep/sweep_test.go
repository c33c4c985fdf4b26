package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ballista/internal/chaos"
)

type unitRec struct {
	Unit int `json:"unit"`
}

// journaledUnits reads back the units a test journal recorded.
func journaledUnits(t *testing.T, path string) []int {
	t.Helper()
	lines, err := ReadLines(path)
	if err != nil {
		t.Fatal(err)
	}
	var units []int
	for _, line := range lines {
		var r unitRec
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		units = append(units, r.Unit)
	}
	return units
}

// TestPoolPanicQuarantine: a unit whose evaluation always panics is
// recovered on every attempt, re-enqueued, re-run on freshly built
// worker state each time, and after MaxAttempts handed to GiveUp — never
// journaled — while every other unit completes.
func TestPoolPanicQuarantine(t *testing.T) {
	const bad = 4
	path := filepath.Join(t.TempDir(), "units.jsonl")
	jnl, err := OpenJournal(path, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()

	var builds atomic.Int64
	var mu sync.Mutex
	var panicStates []int64 // worker state each panicking attempt ran on
	var faults, givenUp []Fault
	pool := Pool{
		Workers: 3,
		Worker: func(int) EvalFunc {
			state := builds.Add(1)
			return func(_ context.Context, unit int, _ bool) error {
				if unit == bad {
					mu.Lock()
					panicStates = append(panicStates, state)
					mu.Unlock()
					panic("boom")
				}
				return jnl.Append(unitRec{Unit: unit})
			}
		},
		OnPanic: func(f Fault) {
			mu.Lock()
			faults = append(faults, f)
			mu.Unlock()
		},
		GiveUp: func(f Fault) error {
			mu.Lock()
			givenUp = append(givenUp, f)
			mu.Unlock()
			return nil
		},
	}
	units := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if _, err := pool.Run(context.Background(), units); err != nil {
		t.Fatalf("a quarantined unit failed the pool: %v", err)
	}

	if len(faults) != MaxAttempts {
		t.Fatalf("OnPanic saw %d faults, want %d", len(faults), MaxAttempts)
	}
	for i, f := range faults {
		if f.Unit != bad || f.Attempt != i+1 || f.Reason != "boom" {
			t.Errorf("fault %d = %+v, want unit %d attempt %d reason boom", i, f, bad, i+1)
		}
	}
	if len(givenUp) != 1 || givenUp[0].Unit != bad || givenUp[0].Attempt != MaxAttempts {
		t.Fatalf("GiveUp saw %+v, want unit %d once at attempt %d", givenUp, bad, MaxAttempts)
	}
	seen := map[int64]bool{}
	for _, s := range panicStates {
		if seen[s] {
			t.Errorf("attempt reran on worker state %d a panic had already poisoned", s)
		}
		seen[s] = true
	}
	if got, want := builds.Load(), int64(3+MaxAttempts); got != want {
		t.Errorf("built %d worker states, want %d (one per worker plus one per panic)", got, want)
	}

	got := journaledUnits(t, path)
	if len(got) != len(units)-1 {
		t.Fatalf("journaled %d units, want %d", len(got), len(units)-1)
	}
	for _, u := range got {
		if u == bad {
			t.Fatal("the exhausted unit was journaled")
		}
	}
}

// TestPoolPrefersRealErrorOverCancellation: one failing unit cancels
// the others, and Run reports the failure, not the cancellation.
func TestPoolPrefersRealErrorOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	pool := Pool{
		Workers: 4,
		Worker: func(int) EvalFunc {
			return func(ctx context.Context, unit int, _ bool) error {
				if unit == 0 {
					return boom
				}
				<-ctx.Done()
				return ctx.Err()
			}
		},
	}
	if _, err := pool.Run(context.Background(), []int{0, 1, 2, 3}); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
}

// TestJournalAppendFailsAfterRetries: an always-firing, non-transient
// ckpt.write fault exhausts the retry budget and Append reports it.
func TestJournalAppendFailsAfterRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	jnl, err := OpenJournal(path, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindFail, RatePerMille: 1000},
	}}
	stats := chaos.NewStats()
	jnl.SetChaos(plan.NewInjector(stats), stats)

	if err := jnl.Append(unitRec{Unit: 1}); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Append = %v, want chaos.ErrInjected", err)
	}
	snap := stats.Snapshot()
	if snap.Injected[chaos.OpCkptWrite] != appendAttempts || snap.Retried != appendAttempts-1 {
		t.Errorf("injected %d, retried %d; want %d attempts, %d retries",
			snap.Injected[chaos.OpCkptWrite], snap.Retried, appendAttempts, appendAttempts-1)
	}
	if units := journaledUnits(t, path); len(units) != 0 {
		t.Errorf("failed appends left records %v", units)
	}
}

// TestJournalShortWriteSkipped: a torn write leaves a newline-terminated
// half line, the retry appends the whole record after it, and replay
// skips the tear.
func TestJournalShortWriteSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	ck, _, err := OpenCheckpoint[unitRec](path, "testsweep", "id", 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindShort, RatePerMille: 1000, Transient: true},
	}}
	ck.SetChaos(plan.NewInjector(nil), nil)
	if err := ck.Append(1, &unitRec{Unit: 41}); err != nil {
		t.Fatalf("a transient tear leaked out of Append: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("journal = %q, want header, torn line, record", data)
	}
	want := `{"i":1,"r":{"unit":41}}` + "\n"
	if lines[1] != want[:len(want)/2]+"\n" || lines[2] != want {
		t.Fatalf("journal = %q, want a newline-terminated half of %q before it", data, want)
	}

	ck, done, err := OpenCheckpoint[unitRec](path, "testsweep", "id", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if done[0] != nil || done[1] == nil || done[1].Unit != 41 {
		t.Fatalf("replayed %v, want only unit 1 = 41", done)
	}
}

// TestJournalConcurrentAppends: appends from many goroutines never
// interleave — every record lands as one whole line.
func TestJournalConcurrentAppends(t *testing.T) {
	const writers, each = 8, 200
	path := filepath.Join(t.TempDir(), "j.jsonl")
	jnl, err := OpenJournal(path, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range each {
				if err := jnl.Append(unitRec{Unit: w*each + k}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	units := journaledUnits(t, path)
	if len(units) != writers*each {
		t.Fatalf("journal holds %d lines, want %d", len(units), writers*each)
	}
	seen := make(map[int]bool)
	for _, u := range units {
		seen[u] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("journal holds %d distinct records, want %d", len(seen), writers*each)
	}
}

// TestJournalHeaderWrittenOnce: a fresh (missing or empty) journal gets
// its header through a temp file and rename; reopening a journal that
// already has one leaves it alone.
func TestJournalHeaderWrittenOnce(t *testing.T) {
	for _, fresh := range []string{"missing", "empty"} {
		t.Run(fresh, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "h.jsonl")
			if fresh == "empty" {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			hdr := ckptHeader{V: 1, Kind: "testsweep", ID: "abc"}
			for range 2 {
				jnl, err := OpenJournal(path, "test", hdr)
				if err != nil {
					t.Fatal(err)
				}
				if err := jnl.Append(unitRec{Unit: 7}); err != nil {
					t.Fatal(err)
				}
				if err := jnl.Close(); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := `{"v":1,"kind":"testsweep","id":"abc"}` + "\n" + `{"unit":7}` + "\n" + `{"unit":7}` + "\n"
			if string(data) != want {
				t.Fatalf("journal = %q, want %q", data, want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Errorf("directory holds %d entries, want only the journal (temp file renamed away)", len(entries))
			}
		})
	}
}

// TestCheckpointRejectsForeignHeader: a journal of another kind or
// another sweep identity is an error, not a silent restart.
func TestCheckpointRejectsForeignHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	ck, _, err := OpenCheckpoint[unitRec](path, "testsweep", "id-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if _, _, err := OpenCheckpoint[unitRec](path, "testsweep", "id-b", 1); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("foreign identity: err = %v", err)
	}
	if _, _, err := OpenCheckpoint[unitRec](path, "othersweep", "id-a", 1); err == nil {
		t.Error("foreign kind accepted")
	}
}
