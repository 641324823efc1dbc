package sched

import "math"

// deque is a grow-able double-ended work queue in the Chase–Lev layout:
// the owning worker pushes and pops at the bottom (LIFO, cache-friendly
// depth-first execution), thieves steal from the top (FIFO, stealing the
// oldest and typically largest subtree). The machine's one driver goroutine
// is its only caller, so the structure carries the semantics rather than
// the lock-freedom of the original.
//
// A slot may hold a run: a Task with N > 1 stands for N identical
// siblings. Both ends peel one copy off a run, so the deque hands out the
// same task values in the same order as N separate slots would. The owner
// pushes with fold first and pushBottom only when fold declines, so a task
// whose nonzero Key equals the bottom slot's grows that run instead of
// taking a slot: a frontier of interchangeable tasks (UTS) sits in one
// slot however many expansions produced it. The peel is written out in
// popBottom and stealTop, and fold is kept apart from pushBottom, because
// a shared helper or a merged push would go past the compiler's inlining
// budget on the scheduler's hottest path.
type deque struct {
	buf    []Task
	top    int // next steal position
	bottom int // next push position
}

// size returns the number of occupied slots. A run counts once, which is
// all emptiness and growth need.
func (d *deque) size() int { return d.bottom - d.top }

// pushBottom adds a task (or a run of them) at the owner's end, in a slot
// of its own.
func (d *deque) pushBottom(t Task) {
	if d.bottom == len(d.buf) {
		d.grow()
	}
	d.buf[d.bottom] = t
	d.bottom++
}

// fold merges a keyed task into the bottom slot when that slot carries the
// same key and the sum still fits N, and reports whether it did.
func (d *deque) fold(t Task) bool {
	if t.Key == 0 || d.bottom == d.top {
		return false
	}
	s := &d.buf[d.bottom-1]
	n := s.count() + t.count()
	if s.Key != t.Key || n > math.MaxInt32 {
		return false
	}
	s.N = int32(n)
	return true
}

// popBottom removes the most recently pushed task (owner's end). A run
// gives up one copy and keeps its slot until its last copy leaves.
func (d *deque) popBottom() (Task, bool) {
	if d.size() == 0 {
		return Task{}, false
	}
	s := &d.buf[d.bottom-1]
	t := *s
	if t.N > 1 {
		s.N--
		t.N = 1
	} else {
		d.bottom--
		*s = Task{} // release references
	}
	return t, true
}

// stealTop removes the oldest task (thief's end), peeling runs the same
// way.
func (d *deque) stealTop() (Task, bool) {
	if d.size() == 0 {
		return Task{}, false
	}
	s := &d.buf[d.top]
	t := *s
	if t.N > 1 {
		s.N--
		t.N = 1
	} else {
		d.top++
		*s = Task{}
	}
	return t, true
}

// grow compacts the live region to the front and doubles capacity when
// needed, amortising both the stolen prefix and true growth.
func (d *deque) grow() {
	n := d.size()
	if d.top > 0 && n <= len(d.buf)/2 {
		copy(d.buf, d.buf[d.top:d.bottom])
		for i := n; i < d.bottom; i++ {
			d.buf[i] = Task{}
		}
	} else {
		next := make([]Task, max(16, 2*len(d.buf)))
		copy(next, d.buf[d.top:d.bottom])
		d.buf = next
	}
	d.top, d.bottom = 0, n
}
