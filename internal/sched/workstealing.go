package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Task is one async task in the async–finish model: a segment of work plus
// an optional Expand hook that produces the children spawned by the task's
// body. Expansion happens when the task completes, which unfolds the same
// DAG as body-time spawning with slightly coarser interleaving.
//
// Tasks are plain values. A tree builder gives every interior node of a
// round the same Expand function and tells the nodes apart by their node
// range [Lo, Hi), so expanding a task allocates nothing: Expand receives
// the task by value and appends its children to kids, a scratch slice the
// runtime owns and reuses, returning the extended slice. The runtime
// copies the children onto a deque before the next expansion reuses kids.
//
// N is how many identical siblings the value stands for; 0 and 1 both mean
// one task. A builder whose children are equal (UTS's nodes carry no
// range) appends one Task with N = n instead of n copies, and the deque
// keeps it in one slot. The runtime counts, dispatches and expands each
// copy separately: Expand and the executing core always see a single task,
// so a run is indistinguishable from N pushes of the same value.
//
// Key extends that across expansions: a nonzero Key promises that tasks
// with equal keys are interchangeable, so the deque folds a keyed push
// into a bottom slot of the same key instead of taking a new slot, and a
// worker's whole UTS frontier sits in one run. Zero means never merge,
// which tasks told apart by their range (stencils, DSL DAGs) keep. With
// the int32 fields and the key in their padding a Task is 64 bytes.
type Task struct {
	Seg    workload.Segment
	Lo, Hi int32
	N      int32
	Key    uint32
	Expand func(t Task, r *rand.Rand, kids []Task) []Task
}

// count returns how many tasks t stands for.
func (t Task) count() int { return max(1, int(t.N)) }

// RoundGen supplies the root task set of each finish scope ("round"), or
// ok == false when the program ends. Iterative benchmarks (Heat, SOR) have
// one round per outer iteration; UTS has a single round holding the tree
// root.
type RoundGen func(round int) ([]Task, bool)

// SingleRound wraps a fixed task set as a one-round program.
func SingleRound(tasks []Task) RoundGen {
	return func(round int) ([]Task, bool) {
		if round > 0 {
			return nil, false
		}
		return tasks, true
	}
}

// Per-model steal-path costs in instructions — the §5.2 calibration
// charged on every successful steal. They live here, next to the
// runtime that charges them, so the bench task builders and the
// scenario DSL's task-DAG decomposition share one source of truth:
// libomp's locked task queues vs HClib's lean work-first deques.
const (
	StealOverheadOpenMP = 700
	StealOverheadHClib  = 300
)

// WorkStealing is the HClib-style runtime: each worker owns a deque, pushes
// spawned children at the bottom, executes depth-first, and steals from the
// top of random victims when empty. A finish scope joins each round: the
// next round's roots are released only when every task of the current round
// has completed.
type WorkStealing struct {
	cores   int
	gen     RoundGen
	rng     *rand.Rand
	deques  []deque
	current []Task // task executing on each core
	running []bool
	kids    []Task // expansion scratch, reused by every Complete
	queued  int    // tasks sitting in deques (released, not yet picked up)
	pending int    // tasks released but not completed in this round
	round   int
	done    bool

	// StealOverheadInstr is charged as extra instructions on every
	// successful steal, modelling deque CAS traffic and cache misses on the
	// migrated task's working set.
	StealOverheadInstr float64

	steals      int
	failedTries int
	tasksRun    int
}

// NewWorkStealing creates the runtime. The seed drives victim selection
// and any randomness in task expansion.
func NewWorkStealing(cores int, gen RoundGen, seed int64) *WorkStealing {
	if cores <= 0 {
		panic(fmt.Sprintf("sched: invalid core count %d", cores))
	}
	w := &WorkStealing{
		cores:              cores,
		gen:                gen,
		rng:                rand.New(rand.NewSource(seed)),
		deques:             make([]deque, cores),
		current:            make([]Task, cores),
		running:            make([]bool, cores),
		StealOverheadInstr: 400,
	}
	w.startRound()
	return w
}

// startRound releases the next round's roots, distributing them
// round-robin across the deques (HClib seeds the root at worker 0; we
// spread multi-root rounds to shorten ramp-up the way its loop-fork does).
func (w *WorkStealing) startRound() {
	roots, ok := w.gen(w.round)
	w.round++
	if !ok {
		w.done = true
		return
	}
	if len(roots) == 0 {
		// An empty round completes immediately; recurse to the next.
		w.startRound()
		return
	}
	n := 0
	for i, t := range roots {
		if d := &w.deques[i%w.cores]; !d.fold(t) {
			d.pushBottom(t)
		}
		n += t.count()
	}
	w.queued += n
	w.pending = n
}

// NextSegment pops local work or steals. It returns ok == false when the
// worker found nothing this attempt (it will retry next quantum) or the
// round is draining toward its finish barrier.
func (w *WorkStealing) NextSegment(core int, now float64) (workload.Segment, bool) {
	if w.done || w.queued == 0 {
		// Nothing anywhere to pop or steal: fail fast without burning RNG
		// draws on victim selection. Idle cores poll every quantum, so this
		// path dominates ramp-up and finish-barrier drains.
		return workload.Segment{}, false
	}
	t, ok := w.deques[core].popBottom()
	stole := false
	if !ok {
		t, ok = w.steal(core)
		stole = ok
	}
	if !ok {
		return workload.Segment{}, false
	}
	w.queued--
	w.current[core] = t
	w.running[core] = true
	w.tasksRun++
	seg := t.Seg
	if stole {
		seg.Instructions += w.StealOverheadInstr
	}
	return seg, true
}

// steal tries up to cores-1 random victims.
func (w *WorkStealing) steal(thief int) (Task, bool) {
	if w.cores == 1 {
		return Task{}, false
	}
	for tries := 0; tries < w.cores-1; tries++ {
		victim := w.rng.Intn(w.cores)
		if victim == thief {
			continue
		}
		if t, ok := w.deques[victim].stealTop(); ok {
			w.steals++
			return t, true
		}
		w.failedTries++
	}
	return Task{}, false
}

// Complete finishes the task on core: its children are spawned onto the
// core's own deque, and the finish barrier releases the next round when the
// last task of this round retires.
func (w *WorkStealing) Complete(core int, now float64) {
	if !w.running[core] {
		return
	}
	t := w.current[core]
	w.current[core] = Task{}
	w.running[core] = false
	if t.Expand != nil {
		w.kids = t.Expand(t, w.rng, w.kids[:0])
		n := 0
		d := &w.deques[core]
		for _, c := range w.kids {
			if !d.fold(c) {
				d.pushBottom(c)
			}
			n += c.count()
		}
		w.queued += n
		w.pending += n
	}
	w.pending--
	if w.pending == 0 {
		w.startRound()
	}
}

// Done reports whether every round has completed.
func (w *WorkStealing) Done() bool {
	return w.done
}

// Stats returns scheduler counters: tasks executed, successful steals and
// failed steal attempts.
func (w *WorkStealing) Stats() (tasks, steals, failed int) {
	return w.tasksRun, w.steals, w.failedTries
}
