package sweep

import (
	"reflect"
	"testing"
)

func TestDequeFIFOOrder(t *testing.T) {
	d := &deque{}
	d.push(1, 2, 3, 4, 5)
	var got []int
	for {
		idx, ok := d.popFront()
		if !ok {
			break
		}
		got = append(got, idx)
	}
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("popFront order %v, want %v", got, want)
	}
	if _, ok := d.popFront(); ok {
		t.Error("popFront on empty deque reported ok")
	}
}

func TestDequeStealHalf(t *testing.T) {
	d := &deque{}
	d.push(10, 11, 12, 13, 14)
	loot := d.stealHalf()
	if want := []int{12, 13, 14}; !reflect.DeepEqual(loot, want) {
		t.Fatalf("stealHalf = %v, want back half %v (rounded up)", loot, want)
	}
	if d.size() != 2 {
		t.Fatalf("victim kept %d items, want 2", d.size())
	}
	// The owner still walks its remaining front portion in order.
	if idx, _ := d.popFront(); idx != 10 {
		t.Errorf("owner's next = %d, want 10", idx)
	}
}

func TestDequeStealSingle(t *testing.T) {
	d := &deque{}
	d.push(7)
	if loot := d.stealHalf(); !reflect.DeepEqual(loot, []int{7}) {
		t.Fatalf("stealHalf of 1 item = %v, want [7]", loot)
	}
	if loot := d.stealHalf(); loot != nil {
		t.Fatalf("stealHalf of empty = %v, want nil", loot)
	}
}
