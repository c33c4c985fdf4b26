package farm

import (
	"encoding/json"
	"fmt"

	"ballista/internal/core"
	"ballista/internal/sweep"
)

// journalVersion is the checkpoint schema version.
const journalVersion = 1

// journalRecord is one JSONL checkpoint line: a fully completed MuT
// shard.  The paper's campaigns that crashed mid-run had to restart from
// scratch; replaying these records lets an interrupted farm campaign —
// or a killed fleet coordinator — resume exactly where it stopped.  The
// embedded wire types keep the on-disk field order identical to the
// pre-fleet schema (v, os, cap, shard, mut, wide, classes, exceptional,
// incomplete, reboots, worker, stolen), so old journals replay as-is.
type journalRecord struct {
	V   int    `json:"v"`
	OS  string `json:"os"`
	Cap int    `json:"cap"`
	ShardDesc
	ShardResult
	Worker int  `json:"worker"`
	Stolen bool `json:"stolen,omitempty"`
}

// Journal appends completed-shard records to a checkpoint file (a
// sweep.Journal without a header line), serialized across writers and
// fsynced per record.  The farm journals its own workers' completions;
// the fleet coordinator journals uploads through the same machinery,
// which is what makes a killed coordinator resumable.
type Journal struct{ *sweep.Journal }

// OpenJournal opens (or creates) a checkpoint journal for appending.
// site labels the harness-domain chaos decision point consulted before
// each write: "farm" for in-process campaigns, "fleet" for the
// coordinator's lease journal.
func OpenJournal(path, site string) (*Journal, error) {
	j, err := sweep.OpenJournal(path, site, nil)
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	return &Journal{j}, nil
}

// Append journals one completed shard.
func (j *Journal) Append(osName string, cap int, d ShardDesc, r ShardResult, worker int, stolen bool) error {
	return j.Journal.Append(journalRecord{
		V: journalVersion, OS: osName, Cap: cap,
		ShardDesc: d, ShardResult: r,
		Worker: worker, Stolen: stolen,
	})
}

// LoadJournal replays a checkpoint file against a campaign's shard list
// and returns completed results keyed by shard index.  Records are
// validated against the campaign identity (OS, cap, shard index, MuT
// name, wide flag) — resuming a stale journal against a different
// campaign is an error, not silent corruption.  Records are independent,
// so a torn line anywhere (the write a kill or an injected disk fault
// interrupted, always newline-terminated by the writer) is skipped and
// the replay continues; a duplicate shard record keeps the last
// occurrence.
func LoadJournal(path string, osName string, cap int, descs []ShardDesc) (map[int]ShardResult, error) {
	lines, err := sweep.ReadLines(path)
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	if lines == nil {
		return nil, nil // fresh campaign: the journal will be created
	}
	done := make(map[int]ShardResult)
	for _, line := range lines {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn write; every complete record stands on its own.
			continue
		}
		if rec.V != journalVersion {
			return nil, fmt.Errorf("farm: checkpoint version %d (want %d)", rec.V, journalVersion)
		}
		if rec.OS != osName || rec.Cap != cap {
			return nil, fmt.Errorf("farm: checkpoint is for os=%s cap=%d, campaign is os=%s cap=%d",
				rec.OS, rec.Cap, osName, cap)
		}
		if rec.Index < 0 || rec.Index >= len(descs) {
			return nil, fmt.Errorf("farm: checkpoint shard %d out of range (catalog has %d)", rec.Index, len(descs))
		}
		d := descs[rec.Index]
		if d.MuT != rec.MuT || d.Wide != rec.Wide {
			return nil, fmt.Errorf("farm: checkpoint shard %d is %s (wide=%v), catalog has %s (wide=%v)",
				rec.Index, rec.MuT, rec.Wide, d.MuT, d.Wide)
		}
		if _, err := core.UnpackClasses(rec.Classes); err != nil {
			return nil, err
		}
		if len(rec.Exceptional) != len(rec.Classes) {
			return nil, fmt.Errorf("farm: checkpoint shard %d has %d classes but %d exceptional flags",
				rec.Index, len(rec.Classes), len(rec.Exceptional))
		}
		done[rec.Index] = rec.ShardResult
	}
	return done, nil
}
