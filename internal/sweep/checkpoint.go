package sweep

import (
	"encoding/json"
	"fmt"
)

// Checkpoint is the indexed-result journal of an engine whose units are
// evaluated purely and merged by index (the crash and scarcity sweeps):
// a {"v","kind","id"} identity header, then one {"i","r"} line per
// completed unit.  A torn or foreign line is skipped and its unit just
// re-evaluates on resume, which cannot change the report.
type Checkpoint[R any] struct{ *Journal }

type ckptHeader struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// ckptLine holds the result in a named field: json cannot unmarshal
// into an embedded pointer to an unexported type, which would silently
// turn every resume into a full re-evaluation.
type ckptLine[R any] struct {
	I int `json:"i"`
	R *R  `json:"r"`
}

// OpenCheckpoint replays the checkpoint at path and opens it for
// appending.  It returns one slot per unit, holding the result of every
// unit already journaled (the last record wins) and nil for the rest.
// A header naming a different kind or sweep identity is an error, not a
// silent restart.
func OpenCheckpoint[R any](path, kind, id string, units int) (*Checkpoint[R], []*R, error) {
	lines, err := ReadLines(path)
	if err != nil {
		return nil, nil, err
	}
	done := make([]*R, units)
	if len(lines) > 0 {
		var hdr ckptHeader
		if err := json.Unmarshal(lines[0], &hdr); err != nil {
			return nil, nil, fmt.Errorf("checkpoint %s: unreadable header: %w", path, err)
		}
		if hdr.Kind != kind || hdr.V != 1 {
			return nil, nil, fmt.Errorf("checkpoint %s is not a %s journal", path, kind)
		}
		if hdr.ID != id {
			return nil, nil, fmt.Errorf("checkpoint %s belongs to a different sweep (id %s, want %s)", path, hdr.ID, id)
		}
		for _, line := range lines[1:] {
			var l ckptLine[R]
			if json.Unmarshal(line, &l) != nil || l.R == nil || l.I < 0 || l.I >= units {
				continue
			}
			done[l.I] = l.R
		}
	}
	j, err := OpenJournal(path, kind, ckptHeader{V: 1, Kind: kind, ID: id})
	if err != nil {
		return nil, nil, err
	}
	return &Checkpoint[R]{j}, done, nil
}

// Append journals unit i's result.
func (c *Checkpoint[R]) Append(i int, r *R) error {
	return c.Journal.Append(ckptLine[R]{I: i, R: r})
}
