package sweep

import "sync"

// deque is one worker's unit queue.  The owner pops from the front so
// it walks its partition in index order; an idle worker steals the
// back half of a victim's queue, taking the work the owner is furthest
// from reaching.  A mutex per deque is plenty: units are coarse (a full
// MuT campaign, a chain on a fresh machine per OS, a crash-state
// enumeration), so contention on the queue is negligible next to the
// work it hands out.
type deque struct {
	mu    sync.Mutex
	items []int
}

// popFront removes and returns the owner's next unit.
func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[0]
	d.items = d.items[1:]
	return idx, true
}

// stealHalf removes and returns the back half (rounded up, at least one
// item when any remain) of the deque, preserving order.
func (d *deque) stealHalf() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	stolen := make([]int, take)
	copy(stolen, d.items[n-take:])
	d.items = d.items[:n-take]
	return stolen
}

// push appends units to the back of the deque (used to load an
// initial partition or bank stolen work).
func (d *deque) push(idxs ...int) {
	d.mu.Lock()
	d.items = append(d.items, idxs...)
	d.mu.Unlock()
}

// size reports the current queue length.
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}
