package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ballista/internal/chaos"
)

// Journal is an append-only JSONL checkpoint file.  Every record is
// fsynced before Append returns, so a kill at any instant loses at most
// the record in flight; a torn write (injected or real) is
// newline-terminated, so the damage is one bad line that ReadLines'
// callers skip, never a half-record that poisons the lines after it.
// Appends are serialized, so concurrent writers (a farm's workers, a
// fleet coordinator's upload handlers) may share one Journal.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	site  string
	inj   *chaos.Injector // harness-domain fault session; nil when chaos is off
	stats *chaos.Stats
}

// Append retry schedule: transient write faults (injected or real) back
// off briefly and retry; six attempts cover any transient plan.
const (
	appendAttempts = 6
	backoffBase    = time.Millisecond
	backoffMax     = 20 * time.Millisecond
)

// OpenJournal opens (or creates) the journal at path for appending.
// site labels the harness-domain chaos decision point (chaos.OpCkptWrite)
// consulted before each write.  When header is non-nil and the file is
// missing or empty, header is written as the first line atomically —
// temp file, fsync, rename — so no crash window leaves a torn identity
// line.
func OpenJournal(path, site string, header any) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("creating journal directory: %w", err)
		}
	}
	if header != nil {
		if st, err := os.Stat(path); os.IsNotExist(err) || (err == nil && st.Size() == 0) {
			line, err := json.Marshal(header)
			if err != nil {
				return nil, fmt.Errorf("encoding journal header: %w", err)
			}
			if err := writeFileAtomic(path, append(line, '\n')); err != nil {
				return nil, fmt.Errorf("writing journal header: %w", err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	// A kill mid-write leaves an unterminated tail; end it, so the first
	// record appended now is not glued onto it and lost with it.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("terminating torn journal tail: %w", err)
			}
		}
	}
	return &Journal{f: f, site: site}, nil
}

// SetChaos arms harness-domain fault injection on subsequent appends;
// stats (which may be nil) counts the retries.
func (j *Journal) SetChaos(inj *chaos.Injector, stats *chaos.Stats) {
	j.inj = inj
	j.stats = stats
}

// Append marshals rec as one line and makes it durable, retrying a
// failed write with capped backoff.  The last write error is returned
// once every attempt has failed.
func (j *Journal) Append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	var last error
	for attempt := 0; attempt < appendAttempts; attempt++ {
		if attempt > 0 {
			j.stats.AddRetried()
			time.Sleep(min(backoffBase<<(attempt-1), backoffMax))
		}
		if last = j.writeLine(line); last == nil {
			return nil
		}
	}
	return last
}

// writeLine performs one append attempt: injected faults first, then
// the real write, then fsync.  Torn writes leave a newline-terminated
// partial line, and the retry appends a clean record after it.
func (j *Journal) writeLine(line []byte) error {
	if flt, ok := j.inj.Fault(chaos.OpCkptWrite, j.site); ok {
		if flt.Kind == chaos.KindShort {
			torn := append([]byte(nil), line[:len(line)/2]...)
			j.f.Write(append(torn, '\n'))
		}
		return chaos.ErrInjected
	}
	n, err := j.f.Write(line)
	if err != nil {
		if n > 0 && line[n-1] != '\n' {
			j.f.Write([]byte{'\n'})
		}
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// ReadLines returns the non-empty lines of the journal at path, in file
// order.  A missing file is an empty journal (nil, nil).
func ReadLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading journal: %w", err)
	}
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// writeFileAtomic writes data as path via a same-directory temp file,
// fsync and rename, so a crash mid-write can never leave a half-written
// file at path.  The directory fsync is best-effort (some filesystems
// refuse it); the rename itself is the atomicity guarantee.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
