package crashsim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepWorkerCountInvariance is the determinism oracle: evaluation
// is pure and the merge is in enumeration order, so the report must be
// byte-identical for any worker count.
func TestSweepWorkerCountInvariance(t *testing.T) {
	ref, err := Sweep(context.Background(), Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		rep, err := Sweep(context.Background(), Config{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, rep) {
			t.Errorf("report at %d workers diverges from 1 worker", workers)
		}
		if !bytes.Equal(reportJSON(t, ref), reportJSON(t, rep)) {
			t.Errorf("report JSON at %d workers is not byte-identical", workers)
		}
	}
}

// TestSweepResumeFromTruncatedJournal simulates a mid-sweep kill: a
// complete journal is cut down to a prefix plus a torn half-line, and
// the resumed sweep must skip the tear, re-evaluate only the missing
// workloads, and produce a byte-identical report.
func TestSweepResumeFromTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")
	cfg := Config{Seed: 7, Workers: 4, Checkpoint: path}

	ref, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != ref.Workloads+1 {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), ref.Workloads)
	}
	keep := lines[:1+ref.Workloads/2]
	torn := lines[1+ref.Workloads/2]
	truncated := strings.Join(keep, "\n") + "\n" + torn[:len(torn)/2]
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, resumed)) {
		t.Error("resumed report is not byte-identical to the uninterrupted run")
	}
}

// TestSweepResumeAfterCancel kills a sweep for real — context
// cancellation mid-feed — then resumes from whatever the journal
// caught.
func TestSweepResumeAfterCancel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")
	cfg := Config{Seed: 7, Workers: 2, Checkpoint: path}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the feed: nothing (or almost nothing) runs
	if _, err := Sweep(ctx, cfg); err == nil {
		t.Fatal("cancelled sweep reported no error")
	}

	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Sweep(context.Background(), Config{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, resumed)) {
		t.Error("resumed report diverges from an uninterrupted checkpoint-less run")
	}
}

// TestSweepChecksJournalIdentity: a journal from a different sweep
// configuration must be rejected, not silently reused.
func TestSweepChecksJournalIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")
	if _, err := Sweep(context.Background(), Config{Seed: 7, Budget: 12, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(context.Background(), Config{Seed: 8, Budget: 12, Checkpoint: path}); err == nil {
		t.Fatal("sweep accepted a journal from a different seed")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// parentJournal pins the crashsim checkpoint format: a journal byte for
// byte as earlier versions wrote it (header, two records, a torn tail)
// for Config{Seed: 7, Budget: 12}.
const parentJournal = `{"v":1,"kind":"crashsweep","id":"f27c3dca031c7405"}
{"i":2,"r":{"cp":1,"st":20,"vi":0}}
{"i":3,"r":{"cp":1,"st":7,"vi":0}}
{"i":4,"r":{"cp":1,"st`

// TestSweepResumesParentJournalFormat: the pinned journal replays
// workloads 2 and 3 (which the resume then does not journal again),
// skips the torn tail without gluing the next record onto it, and the
// resumed report equals a fresh one.
func TestSweepResumesParentJournalFormat(t *testing.T) {
	cfg := Config{Seed: 7, Budget: 12, Workers: 2}
	ref, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = filepath.Join(t.TempDir(), "crash.ckpt")
	if err := os.WriteFile(cfg.Checkpoint, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, resumed)) {
		t.Error("report resumed from the old journal differs from a fresh run")
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{`{"i":2,`, `{"i":3,`} {
		if n := strings.Count(string(data), rec); n != 1 {
			t.Errorf("journal holds %d %s records, want 1: the replayed workload re-ran", n, rec)
		}
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2+ref.Workloads || lines[3] != `{"i":4,"r":{"cp":1,"st` {
		t.Errorf("journal holds %d lines, want header + %d records + the torn tail on its own line", len(lines), ref.Workloads)
	}
}
