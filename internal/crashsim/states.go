package crashsim

import (
	"encoding/hex"
	"slices"
	"strconv"

	"ballista/internal/chaos"
	"ballista/internal/sim/fs"
)

// fileState is one file object (inode analogue) as persisted: its data
// bytes and its stored link count.
type fileState struct {
	Data  []byte
	Nlink int
}

// resize sets the file's length to n, zero-filling any growth (a sparse
// hole) and reusing the data buffer's spare capacity.
func (f *fileState) resize(n int64) {
	old := len(f.Data)
	if n <= int64(old) {
		f.Data = f.Data[:n]
		return
	}
	f.Data = slices.Grow(f.Data, int(n)-old)[:n]
	clear(f.Data[old:])
}

// DiskState is one legal post-crash disk image: directory entries
// (path → file object id) plus file objects.  Ids are the persistence
// log's node ids.
type DiskState struct {
	Entries map[string]int
	Files   map[int]*fileState

	// spare parks file objects reset dropped, so ensure can reuse them
	// (and their data buffers) instead of allocating.
	spare []*fileState
}

func newDiskState() *DiskState {
	return &DiskState{Entries: make(map[string]int), Files: make(map[int]*fileState)}
}

func (st *DiskState) clone() *DiskState {
	c := newDiskState()
	for p, id := range st.Entries {
		c.Entries[p] = id
	}
	for id, f := range st.Files {
		nf := &fileState{Nlink: f.Nlink, Data: make([]byte, len(f.Data))}
		copy(nf.Data, f.Data)
		c.Files[id] = nf
	}
	return c
}

// reset turns st into a copy of base, reusing st's maps, file objects
// and data buffers.
func (st *DiskState) reset(base *DiskState) {
	clear(st.Entries)
	for p, id := range base.Entries {
		st.Entries[p] = id
	}
	for _, f := range st.Files {
		st.spare = append(st.spare, f)
	}
	clear(st.Files)
	for id, b := range base.Files {
		f := st.ensure(id)
		f.Nlink = b.Nlink
		f.Data = append(f.Data, b.Data...)
	}
}

// ensure returns the file object for id, adding an empty one (link
// count 0, no data) when the state has none.
func (st *DiskState) ensure(id int) *fileState {
	f, ok := st.Files[id]
	if !ok {
		if n := len(st.spare); n > 0 {
			f = st.spare[n-1]
			st.spare = st.spare[:n-1]
			f.Nlink, f.Data = 0, f.Data[:0]
		} else {
			f = &fileState{}
		}
		st.Files[id] = f
	}
	return f
}

// entryCount counts directory entries referencing a file object.
func (st *DiskState) entryCount(id int) int {
	n := 0
	for _, e := range st.Entries {
		if e == id {
			n++
		}
	}
	return n
}

// Key renders a canonical fingerprint of the state for deduplication.
func (st *DiskState) Key() string {
	var k keyer
	return string(k.render(st))
}

// keyer renders state keys into reused buffers: paths sorted, each as
// "path=id;", then "|", then each file object (ids sorted) as
// "id:nlink:hexdata;".
type keyer struct {
	buf   []byte
	paths []string
	ids   []int
}

// render returns st's key; the bytes are valid until the next call.
func (k *keyer) render(st *DiskState) []byte {
	k.paths = k.paths[:0]
	for p := range st.Entries {
		k.paths = append(k.paths, p)
	}
	slices.Sort(k.paths)
	k.ids = k.ids[:0]
	for id := range st.Files {
		k.ids = append(k.ids, id)
	}
	slices.Sort(k.ids)
	b := k.buf[:0]
	for _, p := range k.paths {
		b = append(b, p...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(st.Entries[p]), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, id := range k.ids {
		f := st.Files[id]
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(f.Nlink), 10)
		b = append(b, ':')
		b = hex.AppendEncode(b, f.Data)
		b = append(b, ';')
	}
	k.buf = b
	return b
}

// Application modes for one metadata record in a partial state.
type metaMode int

const (
	modeAbsent metaMode = iota
	modeFull
	modeAddOnly    // rename: new entry added, old kept; link/remove: entry half only
	modeRemoveOnly // rename: old entry dropped, new never added
	modeNlinkOnly  // link/remove: link-count half only
)

// isData reports whether the record is node-scoped data (vs an entry
// update or a barrier).
func isData(k fs.PersistKind) bool {
	return k == fs.PersistWrite || k == fs.PersistTruncate
}

func isMeta(k fs.PersistKind) bool {
	switch k {
	case fs.PersistCreate, fs.PersistMkdir, fs.PersistRename, fs.PersistLink, fs.PersistRemove:
		return true
	}
	return false
}

// apply lands one record on the state under a mode (meta records) or
// torn flag (write records).  Entry removals only fire when the entry
// still references the record's node: an unapplied earlier op may have
// left a different object under that name, and physically the dir block
// holding our update would not touch it.
func (st *DiskState) apply(r fs.PersistRecord, mode metaMode, torn bool) {
	switch r.Kind {
	case fs.PersistWrite:
		data := r.Data
		if torn {
			data = data[:chaos.TornSplit(len(data))]
		}
		f := st.ensure(r.Node)
		f.resize(max(r.Off+int64(len(data)), int64(len(f.Data))))
		copy(f.Data[r.Off:], data)
	case fs.PersistTruncate:
		st.ensure(r.Node).resize(r.Size)
	case fs.PersistCreate, fs.PersistMkdir:
		if mode == modeAbsent {
			return
		}
		st.Entries[r.Path] = r.Node
		f := st.ensure(r.Node)
		f.Nlink = 1
	case fs.PersistRemove:
		if mode == modeAbsent {
			return
		}
		if mode == modeFull || mode == modeAddOnly {
			if id, ok := st.Entries[r.Path]; ok && id == r.Node {
				delete(st.Entries, r.Path)
			}
		}
		if mode == modeFull || mode == modeNlinkOnly {
			st.ensure(r.Node).Nlink--
		}
	case fs.PersistLink:
		if mode == modeAbsent {
			return
		}
		if mode == modeFull || mode == modeAddOnly {
			st.Entries[r.Path2] = r.Node
		}
		if mode == modeFull || mode == modeNlinkOnly {
			st.ensure(r.Node).Nlink++
		}
	case fs.PersistRename:
		if mode == modeAbsent {
			return
		}
		if mode == modeFull || mode == modeRemoveOnly {
			if id, ok := st.Entries[r.Path]; ok && id == r.Node {
				delete(st.Entries, r.Path)
			}
		}
		if mode == modeFull || mode == modeAddOnly {
			st.Entries[r.Path2] = r.Node
			if mode == modeFull && r.Prev >= 0 {
				// Replacing renames are atomic in every profile that
				// allows them, so the target's unlink rides along.
				st.ensure(r.Prev).Nlink--
			}
		}
	case fs.PersistFsync:
	}
}

// baseState replays the fixture's records — always durable — into the
// pre-workload disk image.
func baseState(ex *execution) *DiskState {
	st := newDiskState()
	for _, r := range ex.log.Records()[:ex.baseLen] {
		st.apply(r, modeFull, false)
	}
	return st
}

// dataCut is one per-node data choice: the first Full records applied
// whole, plus — when Torn — the next record's torn prefix.
type dataCut struct {
	Full int
	Torn bool
}

// enumerateStates returns every legal post-crash disk state at crash
// point cp, in visitStates order, each an independent copy.
func enumerateStates(ex *execution, cp int, pol Policy, base *DiskState) []*DiskState {
	var out []*DiskState
	visitStates(ex, cp, pol, base, func(st *DiskState) { out = append(out, st.clone()) })
	return out
}

// visitStates calls visit once for every distinct legal post-crash disk
// state at crash point cp (1-based: the crash lands after op cp-1), in
// deterministic first-generation order, and returns how many there
// were.  base is the pre-workload image (baseState).  The fully
// persisted state is always a member: "no reordering happened" is legal
// under every policy.
//
// Every state is rebuilt in one scratch DiskState, so visit must not
// retain or modify the state it is handed; clone it to keep it.
func visitStates(ex *execution, cp int, pol Policy, base *DiskState, visit func(*DiskState)) int {
	recs := ex.log.Records()
	pending := recs[ex.baseLen:ex.marks[cp-1]]

	// Forced records: an fsync barrier commits every earlier data record
	// on its node; under FsyncEntries it also commits the node's entry
	// updates, and an ordered journal drags every earlier metadata
	// record along with them.
	forced := make([]bool, len(pending))
	for i, r := range pending {
		if r.Kind != fs.PersistFsync {
			continue
		}
		maxMeta := -1
		for j := 0; j < i; j++ {
			p := pending[j]
			if isData(p.Kind) && p.Node == r.Node {
				forced[j] = true
			}
			if pol.FsyncEntries && isMeta(p.Kind) && (p.Node == r.Node || p.Prev == r.Node) {
				forced[j] = true
				maxMeta = j
			}
		}
		if pol.OrderedMeta && maxMeta >= 0 {
			for j := 0; j < maxMeta; j++ {
				if isMeta(pending[j].Kind) {
					forced[j] = true
				}
			}
		}
	}

	// Per-node data choices: a prefix of that node's data records, with
	// an optional torn tail on the first unapplied write.
	dataIdx := make(map[int][]int) // node id → indices into pending
	var dataNodes []int
	for i, r := range pending {
		if !isData(r.Kind) {
			continue
		}
		if _, ok := dataIdx[r.Node]; !ok {
			dataNodes = append(dataNodes, r.Node)
		}
		dataIdx[r.Node] = append(dataIdx[r.Node], i)
	}
	dataChoices := make([][]dataCut, len(dataNodes))
	for ni, node := range dataNodes {
		idx := dataIdx[node]
		floor := 0
		for k, i := range idx {
			if forced[i] {
				floor = k + 1
			}
		}
		var cuts []dataCut
		for k := floor; k <= len(idx); k++ {
			cuts = append(cuts, dataCut{Full: k})
			if k < len(idx) && pol.TornWrites {
				if r := pending[idx[k]]; r.Kind == fs.PersistWrite && len(r.Data) > 1 {
					cuts = append(cuts, dataCut{Full: k, Torn: true})
				}
			}
		}
		dataChoices[ni] = cuts
	}

	// Metadata choices: a single journal cut under OrderedMeta,
	// otherwise an independent mode per record, split where the policy
	// lets one op's halves persist separately.
	var metaIdx []int
	for i, r := range pending {
		if isMeta(r.Kind) {
			metaIdx = append(metaIdx, i)
		}
	}
	metaFloor := 0
	var metaOptions [][]metaMode
	if pol.OrderedMeta {
		for k, i := range metaIdx {
			if forced[i] {
				metaFloor = k + 1
			}
		}
	} else {
		metaOptions = make([][]metaMode, len(metaIdx))
		for k, i := range metaIdx {
			r := pending[i]
			switch {
			case forced[i]:
				metaOptions[k] = []metaMode{modeFull}
			case r.Kind == fs.PersistRename && !pol.AtomicRename && pol.SplitMeta:
				metaOptions[k] = []metaMode{modeAbsent, modeAddOnly, modeRemoveOnly, modeFull}
			case r.Kind == fs.PersistLink && pol.SplitMeta && pol.Links:
				metaOptions[k] = []metaMode{modeAbsent, modeAddOnly, modeNlinkOnly, modeFull}
			case r.Kind == fs.PersistRemove && pol.SplitMeta && pol.Links:
				metaOptions[k] = []metaMode{modeAbsent, modeAddOnly, modeNlinkOnly, modeFull}
			default:
				metaOptions[k] = []metaMode{modeAbsent, modeFull}
			}
		}
	}

	// A combination is an odometer reading, last digit fastest: the
	// metadata digits (one journal cut, or one per record), then one
	// digit per data node.
	var radix []int
	if pol.OrderedMeta {
		radix = append(radix, len(metaIdx)-metaFloor+1)
	}
	for _, opts := range metaOptions {
		radix = append(radix, len(opts))
	}
	metaDigits := len(radix)
	for _, cuts := range dataChoices {
		radix = append(radix, len(cuts))
	}
	digit := make([]int, len(radix))

	// Each record's application under the current combination.
	mode := make([]metaMode, len(pending))
	torn := make([]bool, len(pending))

	st := newDiskState()
	var keys keyer
	seen := make(map[string]struct{})
	for {
		if pol.OrderedMeta {
			cut := metaFloor + digit[0]
			for k, i := range metaIdx {
				mode[i] = modeAbsent
				if k < cut {
					mode[i] = modeFull
				}
			}
		} else {
			for k, i := range metaIdx {
				mode[i] = metaOptions[k][digit[k]]
			}
		}
		for ni, node := range dataNodes {
			cut := dataChoices[ni][digit[metaDigits+ni]]
			for k, i := range dataIdx[node] {
				mode[i] = modeAbsent
				if k < cut.Full {
					mode[i] = modeFull
				}
				torn[i] = cut.Torn && k == cut.Full
			}
		}

		// Land the records in log order.
		st.reset(base)
		for i, r := range pending {
			switch {
			case isData(r.Kind):
				if mode[i] == modeFull || torn[i] {
					st.apply(r, modeFull, torn[i])
				}
			case isMeta(r.Kind):
				st.apply(r, mode[i], false)
			}
		}
		k := keys.render(st)
		if _, dup := seen[string(k)]; !dup {
			seen[string(k)] = struct{}{}
			visit(st)
		}

		d := len(digit) - 1
		for ; d >= 0; d-- {
			if digit[d]++; digit[d] < radix[d] {
				break
			}
			digit[d] = 0
		}
		if d < 0 {
			return len(seen)
		}
	}
}
