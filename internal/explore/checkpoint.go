package explore

import (
	"encoding/json"
	"fmt"
	"reflect"

	"ballista/internal/sweep"
)

// ckptVersion is the corpus-journal schema version.
const ckptVersion = 1

// ckptMeta is the journal's first line: the campaign identity.  Resume
// refuses a journal whose identity differs from the live configuration,
// because replaying someone else's candidate stream would silently
// diverge from what a fresh run of this campaign produces.  Budget is
// deliberately absent — resuming with a larger budget extends the same
// campaign.
type ckptMeta struct {
	Type        string   `json:"type"` // "meta"
	V           int      `json:"v"`
	Seed        uint64   `json:"seed"`
	Primary     string   `json:"primary"`
	OSes        []string `json:"oses"`
	MaxLen      int      `json:"max_len"`
	CasesPerMuT int      `json:"cases_per_mut"`
	// Alphabet is a hash of the resolved MuT alphabet in order.
	Alphabet string `json:"alphabet"`
}

// ckptChain is one evaluated candidate: everything the merge loop needs
// to reconstruct its state transition without re-executing the chain.
type ckptChain struct {
	Type string `json:"type"` // "chain"
	// N is the candidate ordinal; the journal must be a contiguous
	// prefix 0..n-1 to be trusted.
	N     int    `json:"n"`
	Chain Chain  `json:"chain"`
	FP    string `json:"fp"`
	Novel bool   `json:"novel,omitempty"`

	Divergent    bool                `json:"divergent,omitempty"`
	Catastrophic bool                `json:"catastrophic,omitempty"`
	Sig          string              `json:"sig,omitempty"`
	Classes      map[string][]string `json:"classes,omitempty"`
}

// loadCheckpoint reads a corpus journal and returns the longest trusted
// contiguous candidate prefix.  A missing file is an empty campaign.  A
// torn final line (the process died mid-write), trailing garbage, an
// out-of-order ordinal or an invalid chain all end the prefix there —
// the fuzzer re-executes from that point and, being deterministic,
// reproduces what the lost tail would have held.  Only an identity
// mismatch is an error.
func loadCheckpoint(path string, want ckptMeta) ([]ckptChain, error) {
	lines, err := sweep.ReadLines(path)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if len(lines) == 0 {
		return nil, nil
	}
	var meta ckptMeta
	if err := json.Unmarshal(lines[0], &meta); err != nil || meta.Type != "meta" {
		return nil, fmt.Errorf("explore: checkpoint %s has no meta line", path)
	}
	if !reflect.DeepEqual(meta, want) {
		return nil, fmt.Errorf("explore: checkpoint %s belongs to a different campaign (seed/OS set/alphabet changed); delete it or pass a fresh path", path)
	}
	var recs []ckptChain
	for _, line := range lines[1:] {
		var rec ckptChain
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn write; the writer newline-terminates these, so the
			// next line starts a fresh record (a retried append under a
			// chaos plan, or nothing if the process died here).  Ordinal
			// contiguity below still gates what the prefix trusts.
			continue
		}
		if rec.Type != "chain" || rec.N != len(recs) {
			if rec.Type == "chain" && rec.N < len(recs) {
				continue // duplicate of an already-replayed ordinal
			}
			break // gap or foreign record: end of trusted prefix
		}
		if rec.Chain.Validate() != nil {
			break
		}
		if _, err := ParseFingerprint(rec.FP); err != nil {
			break
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
