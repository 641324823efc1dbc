package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// drive simulates the machine's calling convention without the timing
// model: every core repeatedly asks for a segment and completes it
// immediately. It returns the number of segments executed per core.
func drive(t *testing.T, src workload.Source, cores, maxSteps int) []int {
	t.Helper()
	perCore := make([]int, cores)
	for step := 0; step < maxSteps; step++ {
		if src.Done() {
			return perCore
		}
		progress := false
		for c := 0; c < cores; c++ {
			if seg, ok := src.NextSegment(c, float64(step)); ok {
				if !seg.Valid() {
					t.Fatalf("invalid segment %v", seg)
				}
				src.Complete(c, float64(step))
				perCore[c]++
				progress = true
			}
		}
		if !progress && !src.Done() {
			t.Fatal("runtime wedged: no progress and not done")
		}
	}
	t.Fatal("runtime did not finish in step budget")
	return nil
}

func seg(n float64) workload.Segment {
	return workload.Segment{Instructions: n, IPC: 2}
}

func TestWorkSharingRunsAllChunks(t *testing.T) {
	const cores, chunks, iters = 4, 10, 3
	ws := NewWorkSharing(cores, StaticProgram([]Region{{Seg: seg(100), Chunks: chunks}}, iters), 1)
	perCore := drive(t, ws, cores, 1000)
	total := 0
	for _, n := range perCore {
		total += n
	}
	if total != chunks*iters {
		t.Errorf("executed %d chunks, want %d", total, chunks*iters)
	}
	regions, chunksRun := ws.Stats()
	if regions != iters || chunksRun != chunks*iters {
		t.Errorf("stats = %d regions %d chunks, want %d/%d", regions, chunksRun, iters, chunks*iters)
	}
}

func TestWorkSharingStaticAssignment(t *testing.T) {
	// With chunks == cores each core runs exactly one chunk per region.
	const cores = 5
	ws := NewWorkSharing(cores, StaticProgram([]Region{{Seg: seg(10), Chunks: cores}}, 4), 1)
	perCore := drive(t, ws, cores, 100)
	for c, n := range perCore {
		if n != 4 {
			t.Errorf("core %d ran %d chunks, want 4", c, n)
		}
	}
}

func TestWorkSharingBarrier(t *testing.T) {
	// A core that finished its share must get nothing until the region
	// completes: with 2 cores and 3 chunks, core 1 has one chunk, core 0
	// has two; after core 1's chunk completes it must wait.
	ws := NewWorkSharing(2, StaticProgram([]Region{{Seg: seg(10), Chunks: 3}}, 2), 1)
	if _, ok := ws.NextSegment(1, 0); !ok {
		t.Fatal("core 1 should get chunk 1")
	}
	ws.Complete(1, 0)
	if _, ok := ws.NextSegment(1, 0); ok {
		t.Fatal("core 1 must wait at the barrier, region not complete")
	}
	// Core 0 drains its two chunks; barrier opens a new region.
	for i := 0; i < 2; i++ {
		if _, ok := ws.NextSegment(0, 0); !ok {
			t.Fatalf("core 0 denied chunk %d", i)
		}
		ws.Complete(0, 0)
	}
	// The release takes effect at the next timestamp (the one-quantum
	// barrier wake-up latency that keeps results independent of the order
	// cores step in): same-time claims are refused, later ones succeed.
	if _, ok := ws.NextSegment(1, 0); ok {
		t.Fatal("claim at the release timestamp must wait out the barrier latency")
	}
	if _, ok := ws.NextSegment(1, 0.0005); !ok {
		t.Fatal("barrier should have opened the second region for core 1")
	}
}

func TestWorkSharingJitterPerturbsWithinBounds(t *testing.T) {
	ws := NewWorkSharing(1, StaticProgram([]Region{{Seg: seg(1000), Chunks: 50, JitterFrac: 0.2}}, 1), 7)
	sawDifferent := false
	for i := 0; i < 50; i++ {
		s, ok := ws.NextSegment(0, 0)
		if !ok {
			t.Fatal("ran out of chunks")
		}
		if s.Instructions < 800-1e-9 || s.Instructions > 1200+1e-9 {
			t.Errorf("jittered instructions %.1f outside ±20%%", s.Instructions)
		}
		if s.Instructions != 1000 {
			sawDifferent = true
		}
		ws.Complete(0, 0)
	}
	if !sawDifferent {
		t.Error("jitter produced no variation")
	}
}

func TestWorkSharingEmptyProgram(t *testing.T) {
	ws := NewWorkSharing(2, StaticProgram(nil, 5), 1)
	if !ws.Done() {
		t.Error("empty program must be done immediately")
	}
	if _, ok := ws.NextSegment(0, 0); ok {
		t.Error("empty program handed out work")
	}
}

func TestDequeLIFOOwnerFIFOThief(t *testing.T) {
	var d deque
	for i := 0; i < 5; i++ {
		d.pushBottom(Task{Seg: seg(float64(i))})
	}
	if top, _ := d.stealTop(); top.Seg.Instructions != 0 {
		t.Errorf("thief got %g, want oldest (0)", top.Seg.Instructions)
	}
	if bot, _ := d.popBottom(); bot.Seg.Instructions != 4 {
		t.Errorf("owner got %g, want newest (4)", bot.Seg.Instructions)
	}
	if d.size() != 3 {
		t.Errorf("size = %d, want 3", d.size())
	}
}

func TestDequeGrowthPreservesOrder(t *testing.T) {
	var d deque
	const n = 1000
	for i := 0; i < n; i++ {
		d.pushBottom(Task{Seg: seg(float64(i))})
		if i%3 == 0 {
			d.stealTop() // interleave steals to exercise compaction
		}
	}
	prev := -1.0
	for {
		task, ok := d.stealTop()
		if !ok {
			break
		}
		if task.Seg.Instructions <= prev {
			t.Fatalf("steal order broken: %g after %g", task.Seg.Instructions, prev)
		}
		prev = task.Seg.Instructions
	}
}

func TestDequeEmpty(t *testing.T) {
	var d deque
	if _, ok := d.popBottom(); ok {
		t.Error("popBottom on empty deque returned a task")
	}
	if _, ok := d.stealTop(); ok {
		t.Error("stealTop on empty deque returned a task")
	}
}

func TestDequeRunSlotPeelsBothEnds(t *testing.T) {
	var d deque
	d.pushBottom(Task{Seg: seg(1)})
	d.pushBottom(Task{Seg: seg(5), N: 5})
	d.pushBottom(Task{Seg: seg(2)})
	// Each step names the end it takes from and the task it must get.
	steps := []struct {
		steal bool
		want  float64
	}{
		{true, 1}, {false, 2}, // the singles around the run leave first
		{false, 5}, {true, 5}, {false, 5},
	}
	for i, st := range steps {
		get := d.popBottom
		if st.steal {
			get = d.stealTop
		}
		task, ok := get()
		if !ok || task.Seg.Instructions != st.want || task.N > 1 {
			t.Fatalf("step %d: got %v N=%d ok=%v, want one copy of %g", i, task.Seg.Instructions, task.N, ok, st.want)
		}
	}
	if d.size() != 1 || d.buf[d.top].N != 2 {
		t.Fatalf("after three peels: %d slots, run N=%d; want 1 slot holding 2", d.size(), d.buf[d.top].N)
	}
	// A single pushed behind the partly peeled run comes out first.
	d.pushBottom(Task{Seg: seg(3)})
	for i, want := range []float64{3, 5, 5} {
		task, ok := d.popBottom()
		if !ok || task.Seg.Instructions != want || task.N > 1 {
			t.Fatalf("drain %d: got %v N=%d ok=%v, want one copy of %g", i, task.Seg.Instructions, task.N, ok, want)
		}
	}
	if _, ok := d.stealTop(); ok || d.size() != 0 {
		t.Fatalf("deque not empty after the run's last copy: %d slots", d.size())
	}
}

// TestDequeRunsMatchExpandedModel checks growth, compaction and keyed
// folding against a model that stores every copy of a run as its own
// element: a seeded mix of run pushes, pops and steals must return the
// same tasks in the same order. Unkeyed pushes carry distinct values;
// keyed ones carry key 1 or 2 and a value fixed by the key, as the
// interchangeability promise requires.
func TestDequeRunsMatchExpandedModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var d deque
	var model []float64
	next := 0.0
	folds := 0
	for op := 0; op < 20000; op++ {
		switch x := r.Intn(10); {
		case x < 5:
			n := int32(r.Intn(5)) // 0 and 1 both mean one task
			task := Task{Seg: seg(next), N: n}
			if r.Intn(2) == 0 {
				task.Key = uint32(1 + r.Intn(2))
				task.Seg = seg(-float64(task.Key))
			} else {
				next++
			}
			if d.fold(task) {
				folds++
			} else {
				d.pushBottom(task)
			}
			for range max(1, n) {
				model = append(model, task.Seg.Instructions)
			}
		case x < 7:
			task, ok := d.popBottom()
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: popBottom ok=%v with %d modelled tasks", op, ok, len(model))
			}
			if ok {
				if want := model[len(model)-1]; task.Seg.Instructions != want || task.N > 1 {
					t.Fatalf("op %d: popBottom got %g N=%d, want one copy of %g", op, task.Seg.Instructions, task.N, want)
				}
				model = model[:len(model)-1]
			}
		default:
			task, ok := d.stealTop()
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: stealTop ok=%v with %d modelled tasks", op, ok, len(model))
			}
			if ok {
				if want := model[0]; task.Seg.Instructions != want || task.N > 1 {
					t.Fatalf("op %d: stealTop got %g N=%d, want one copy of %g", op, task.Seg.Instructions, task.N, want)
				}
				model = model[1:]
			}
		}
		if (d.size() == 0) != (len(model) == 0) {
			t.Fatalf("op %d: %d slots but %d modelled tasks", op, d.size(), len(model))
		}
		// Slots change only at the ends and a push folds into an equal
		// key, so no two neighbouring slots can share a nonzero key.
		for i := d.top + 1; i < d.bottom; i++ {
			if k := d.buf[i].Key; k != 0 && k == d.buf[i-1].Key {
				t.Fatalf("op %d: slots %d and %d both hold key %d unmerged", op, i-1, i, k)
			}
		}
	}
	if len(d.buf) < 64 {
		t.Fatalf("deque never grew (cap %d); the test does not reach growth", len(d.buf))
	}
	if folds < 1000 {
		t.Fatalf("only %d keyed pushes folded; the test does not exercise merging", folds)
	}
}

// push adds t the way the runtime does: folded into the bottom slot when
// fold accepts it, in a slot of its own otherwise.
func push(d *deque, t Task) {
	if !d.fold(t) {
		d.pushBottom(t)
	}
}

// TestDequeFoldStopsAtInt32 pins the overflow guard: a fold that would
// push N past math.MaxInt32 takes a new slot instead, so no copy is
// lost to a wrapped count.
func TestDequeFoldStopsAtInt32(t *testing.T) {
	var d deque
	push(&d, Task{Key: 1, N: math.MaxInt32 - 1})
	push(&d, Task{Key: 1}) // fills the slot exactly
	if d.size() != 1 || d.buf[d.top].N != math.MaxInt32 {
		t.Fatalf("%d slots, N=%d; want 1 slot at MaxInt32", d.size(), d.buf[d.top].N)
	}
	push(&d, Task{Key: 1, N: 2}) // would overflow: new slot
	if d.size() != 2 || d.buf[d.top].N != math.MaxInt32 || d.buf[d.bottom-1].N != 2 {
		t.Fatalf("%d slots, N=%d and %d; want MaxInt32 and 2 in two slots", d.size(), d.buf[d.top].N, d.buf[d.bottom-1].N)
	}
	// The full slot stays a run: a steal peels one copy off it.
	if task, ok := d.stealTop(); !ok || task.N > 1 || d.buf[d.top].N != math.MaxInt32-1 {
		t.Fatalf("steal from the full slot: N=%d ok=%v, left %d", task.N, ok, d.buf[d.top].N)
	}
	push(&d, Task{Key: 1, N: math.MaxInt32 - 2}) // 2 + (MaxInt32-2) fits
	if d.size() != 2 || d.buf[d.bottom-1].N != math.MaxInt32 {
		t.Fatalf("%d slots, bottom N=%d; want 2 slots, bottom at MaxInt32", d.size(), d.buf[d.bottom-1].N)
	}
}

func TestNonPositiveRunIsOneTask(t *testing.T) {
	var d deque
	d.pushBottom(Task{Seg: seg(1), N: 0})
	d.pushBottom(Task{Seg: seg(2), N: -3})
	if task, ok := d.popBottom(); !ok || task.Seg.Instructions != 2 {
		t.Fatalf("popBottom = %v %v, want the N=-3 task", task.Seg, ok)
	}
	if task, ok := d.stealTop(); !ok || task.Seg.Instructions != 1 {
		t.Fatalf("stealTop = %v %v, want the N=0 task", task.Seg, ok)
	}
	if d.size() != 0 {
		t.Fatalf("%d slots left, want 0", d.size())
	}
	// The runtime counts such tasks once each, too.
	roots := []Task{{Seg: seg(1), N: 0}, {Seg: seg(1), N: -3}, {Seg: seg(1), N: 1}, {Seg: seg(1), N: 3}}
	ws := NewWorkStealing(2, SingleRound(roots), 1)
	drive(t, ws, 2, 100)
	if tasks, _, _ := ws.Stats(); tasks != 6 {
		t.Errorf("tasks = %d, want 6 (three singles and a run of 3)", tasks)
	}
}

// binaryTree builds a binary tree of the given depth over the node range
// [0, 2^depth): interior nodes share one expand that halves the range,
// one-wide ranges are leaves. It returns the root and the node count.
func binaryTree(depth int) (Task, int) {
	var expand func(Task, *rand.Rand, []Task) []Task
	node := func(lo, hi int32) Task {
		if hi-lo <= 1 {
			return Task{Seg: seg(100)}
		}
		return Task{Seg: seg(100), Lo: lo, Hi: hi, Expand: expand}
	}
	expand = func(t Task, _ *rand.Rand, kids []Task) []Task {
		mid := t.Lo + (t.Hi-t.Lo)/2
		return append(kids, node(t.Lo, mid), node(mid, t.Hi))
	}
	return node(0, 1<<depth), 1<<(depth+1) - 1
}

func TestWorkStealingExecutesWholeTree(t *testing.T) {
	root, want := binaryTree(8)
	ws := NewWorkStealing(4, SingleRound([]Task{root}), 42)
	drive(t, ws, 4, 100000)
	tasks, steals, _ := ws.Stats()
	if tasks != want {
		t.Errorf("executed %d tasks, want %d", tasks, want)
	}
	if steals == 0 {
		t.Error("a 4-worker tree execution should steal at least once")
	}
}

func TestWorkStealingDistributesLoad(t *testing.T) {
	root, want := binaryTree(10)
	const cores = 4
	ws := NewWorkStealing(cores, SingleRound([]Task{root}), 7)
	perCore := drive(t, ws, cores, 1000000)
	for c, n := range perCore {
		if n < want/cores/4 {
			t.Errorf("core %d ran only %d of %d tasks; stealing failed to balance", c, n, want)
		}
	}
}

func TestWorkStealingRounds(t *testing.T) {
	// Three rounds of 8 leaf tasks: round r+1 must not start before round r
	// drains (finish semantics). We detect ordering via the generator call
	// sequence.
	var started []int
	gen := func(round int) ([]Task, bool) {
		if round >= 3 {
			return nil, false
		}
		started = append(started, round)
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Seg: seg(10)}
		}
		return tasks, true
	}
	ws := NewWorkStealing(2, gen, 1)
	drive(t, ws, 2, 10000)
	if len(started) != 3 {
		t.Errorf("rounds started = %v, want [0 1 2]", started)
	}
	tasks, _, _ := ws.Stats()
	if tasks != 24 {
		t.Errorf("tasks = %d, want 24", tasks)
	}
}

func TestWorkStealingStealOverheadCharged(t *testing.T) {
	// Worker 1 must steal its first task from worker 0's deque; the segment
	// it receives carries the steal overhead.
	tasks := []Task{{Seg: seg(100)}, {Seg: seg(100)}}
	// Both roots land on different deques (round-robin); force both onto
	// deque 0 by using 1 root that expands into 2.
	root := Task{Seg: seg(1), Expand: func(_ Task, _ *rand.Rand, kids []Task) []Task {
		return append(kids, tasks...)
	}}
	ws := NewWorkStealing(2, SingleRound([]Task{root}), 3)
	s0, ok := ws.NextSegment(0, 0)
	if !ok || s0.Instructions != 1 {
		t.Fatalf("root segment = %v %v", s0, ok)
	}
	ws.Complete(0, 0) // children pushed to deque 0
	s1, ok := ws.NextSegment(1, 0)
	if !ok {
		t.Fatal("worker 1 failed to steal")
	}
	if s1.Instructions != 100+ws.StealOverheadInstr {
		t.Errorf("stolen segment = %g instr, want %g", s1.Instructions, 100+ws.StealOverheadInstr)
	}
	s0b, ok := ws.NextSegment(0, 0)
	if !ok {
		t.Fatal("worker 0 denied local task")
	}
	if s0b.Instructions != 100 {
		t.Errorf("local segment = %g instr, want 100 (no overhead)", s0b.Instructions)
	}
}

func TestWorkStealingEmptyProgram(t *testing.T) {
	ws := NewWorkStealing(2, func(int) ([]Task, bool) { return nil, false }, 1)
	if !ws.Done() {
		t.Error("empty program must be done")
	}
}

func TestWorkStealingSkipsEmptyRounds(t *testing.T) {
	gen := func(round int) ([]Task, bool) {
		switch round {
		case 0:
			return []Task{}, true // empty round: skip
		case 1:
			return []Task{{Seg: seg(5)}}, true
		default:
			return nil, false
		}
	}
	ws := NewWorkStealing(1, gen, 1)
	drive(t, ws, 1, 100)
	tasks, _, _ := ws.Stats()
	if tasks != 1 {
		t.Errorf("tasks = %d, want 1", tasks)
	}
}

// Property: for random small trees, work stealing with any worker count
// executes exactly the tree's node count.
func TestWorkStealingConservationQuick(t *testing.T) {
	prop := func(depthRaw, coresRaw uint8) bool {
		depth := int(depthRaw % 6)
		cores := 1 + int(coresRaw%8)
		root, want := binaryTree(depth)
		ws := NewWorkStealing(cores, SingleRound([]Task{root}), int64(depthRaw)*31+int64(coresRaw))
		for steps := 0; !ws.Done(); steps++ {
			if steps > 100000 {
				return false
			}
			for c := 0; c < cores; c++ {
				if _, ok := ws.NextSegment(c, 0); ok {
					ws.Complete(c, 0)
				}
			}
		}
		tasks, _, _ := ws.Stats()
		return tasks == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// irregularTiles builds a Heat-irt-shaped round: the stencil benchmarks'
// skewed ternary split (1/6, 1/3, remainder) of a tile range down to
// two-tile leaves, every interior node sharing one expand.
func irregularTiles(tiles int) Task {
	var expand func(Task, *rand.Rand, []Task) []Task
	node := func(lo, hi int) Task {
		if hi-lo <= 2 {
			return Task{Seg: seg(float64(1000 * (hi - lo)))}
		}
		return Task{Seg: seg(2000), Lo: int32(lo), Hi: int32(hi), Expand: expand}
	}
	expand = func(t Task, _ *rand.Rand, kids []Task) []Task {
		lo, hi := int(t.Lo), int(t.Hi)
		n := hi - lo
		a := lo + max(1, n/6)
		b := min(a+max(1, n/3), hi-1)
		return append(kids, node(lo, a), node(a, b), node(b, hi))
	}
	return node(0, tiles)
}

// utsForm is how utsRounds emits a node's n identical children.
type utsForm int

const (
	utsCopies utsForm = iota // n separate tasks
	utsRuns                  // one run, N = n
	utsKeyed                 // one run with Key 1, as the UTS benchmark emits them
)

// utsRounds is a UTS-style program: every round hangs 10 nodes per core
// off the root, and each node expands into 0–7 children drawn from the
// runtime's RNG until the round's node budget is spent. Every node is the
// same value; form picks how a node's children go out.
func utsRounds(cores, budget int, form utsForm) RoundGen {
	left := 0
	node := Task{Seg: seg(1000)}
	if form == utsKeyed {
		node.Key = 1
	}
	var expand func(Task, *rand.Rand, []Task) []Task
	expand = func(_ Task, r *rand.Rand, kids []Task) []Task {
		n := 0
		if r.Float64() < 0.30 {
			n = 1 + r.Intn(7)
		}
		n = min(n, left)
		left -= n
		switch {
		case n == 0:
		case form == utsCopies:
			for range n {
				kids = append(kids, node)
			}
		default:
			run := node
			run.N = int32(n)
			kids = append(kids, run)
		}
		return kids
	}
	node.Expand = expand
	roots := make([]Task, 10*cores)
	for i := range roots {
		roots[i] = node
	}
	return func(int) ([]Task, bool) {
		left = budget - len(roots)
		return roots, true
	}
}

// TestRunSlotsMatchExpandedCopies is the run-length equivalence property:
// a UTS-style program that emits runs, the same program with keyed runs
// that the deques merge across expansions, and the same program emitting
// n separate copies, driven through one seeded schedule of NextSegment
// and Complete calls on 20 cores, return the same segments (steal
// overhead included) and end with the same counters and round count.
// Each step leaves some cores idle and some tasks running, so thieves
// find partly peeled runs, and on the keyed side merged ones, at the top
// of their victims' deques.
//
// The run-length side must also keep at most 2/5 of the expanded side's
// peak deque slots. Runs average four copies, but a depth-first deque is
// a stack of runs each already peeled by the descent below it, so the
// measured ratio is 0.36–0.38 here (0.36 for one deque in pure depth-first
// order), not a quarter. The keyed side never holds more than one slot
// per deque.
func TestRunSlotsMatchExpandedCopies(t *testing.T) {
	const cores = 20
	slots := func(ws *WorkStealing) (total, most int) {
		for i := range ws.deques {
			n := ws.deques[i].size()
			total += n
			most = max(most, n)
		}
		return total, most
	}
	prop := func(seed int64) bool {
		flat := NewWorkStealing(cores, utsRounds(cores, 20000, utsCopies), seed)
		runs := NewWorkStealing(cores, utsRounds(cores, 20000, utsRuns), seed)
		keyed := NewWorkStealing(cores, utsRounds(cores, 20000, utsKeyed), seed)
		plan := rand.New(rand.NewSource(seed))
		busy := make([]bool, cores)
		peakRuns, peakFlat, peakKeyed := 0, 0, 0
		for step := 0; flat.round < 4; step++ {
			if step > 200000 {
				t.Errorf("seed %d: schedule did not finish three rounds", seed)
				return false
			}
			for c := 0; c < cores; c++ {
				if busy[c] {
					if plan.Intn(3) == 0 {
						flat.Complete(c, 0)
						runs.Complete(c, 0)
						keyed.Complete(c, 0)
						busy[c] = false
					}
					continue
				}
				if plan.Intn(4) == 0 {
					continue // idle this step
				}
				a, okA := flat.NextSegment(c, 0)
				b, okB := runs.NextSegment(c, 0)
				k, okK := keyed.NextSegment(c, 0)
				if okA != okB || a != b || okA != okK || a != k {
					t.Errorf("seed %d step %d core %d: copies gave %v %v, runs %v %v, keyed %v %v", seed, step, c, a, okA, b, okB, k, okK)
					return false
				}
				busy[c] = okA
			}
			n, _ := slots(runs)
			peakRuns = max(peakRuns, n)
			n, _ = slots(flat)
			peakFlat = max(peakFlat, n)
			_, n = slots(keyed)
			peakKeyed = max(peakKeyed, n)
		}
		ta, sa, fa := flat.Stats()
		for _, ws := range []*WorkStealing{runs, keyed} {
			tb, sb, fb := ws.Stats()
			if ta != tb || sa != sb || fa != fb || ws.round != flat.round {
				t.Errorf("seed %d: stats %d/%d/%d round %d vs copies %d/%d/%d round %d", seed, tb, sb, fb, ws.round, ta, sa, fa, flat.round)
				return false
			}
		}
		if sa == 0 {
			t.Errorf("seed %d: no steals; the schedule does not exercise stealing", seed)
			return false
		}
		if 5*peakRuns > 2*peakFlat {
			t.Errorf("seed %d: peak slots %d with runs vs %d with copies, want at most 2/5", seed, peakRuns, peakFlat)
			return false
		}
		if peakKeyed != 1 {
			t.Errorf("seed %d: a keyed deque held %d slots at once, want 1", seed, peakKeyed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestKeyedUTSHoldsOneSlotPerDeque runs a whole keyed UTS round of 200 k
// nodes on 20 cores: every deque holds at most one slot throughout, so
// no buffer grows past its initial 16 slots, however deep the frontier.
func TestKeyedUTSHoldsOneSlotPerDeque(t *testing.T) {
	const cores = 20
	ws := NewWorkStealing(cores, utsRounds(cores, 200000, utsKeyed), 1)
	tasks, peakQueued := 0, 0
	for ws.round == 1 {
		for c := 0; c < cores; c++ {
			if _, ok := ws.NextSegment(c, 0); ok {
				ws.Complete(c, 0)
				tasks++
			}
			if n := ws.deques[c].size(); n > 1 {
				t.Fatalf("after %d tasks deque %d holds %d slots, want at most 1", tasks, c, n)
			}
		}
		peakQueued = max(peakQueued, ws.queued)
	}
	for c := range ws.deques {
		if n := len(ws.deques[c].buf); n > 16 {
			t.Errorf("deque %d grew to %d slots, want the initial 16", c, n)
		}
	}
	if tasks < 100000 || peakQueued < 1000 {
		t.Fatalf("round ran %d tasks with at most %d queued; the tree is too small to test", tasks, peakQueued)
	}
}

// runRound steps every core — ask for a segment, complete it at once —
// until the runtime releases its next round. It returns the tasks run.
func runRound(ws *WorkStealing, cores int) int {
	start, n := ws.round, 0
	for ws.round == start {
		for c := 0; c < cores; c++ {
			if _, ok := ws.NextSegment(c, 0); ok {
				ws.Complete(c, 0)
				n++
			}
		}
	}
	return n
}

// expandPrograms are the two task shapes the zero-alloc guard and
// BenchmarkWorkStealingExpand drive: a Heat-irt round and a UTS tree.
func expandPrograms(cores int) map[string]RoundGen {
	heat := []Task{irregularTiles(4096)}
	return map[string]RoundGen{
		"heat-irt": func(int) ([]Task, bool) { return heat, true },
		"uts":      utsRounds(cores, 20000, utsKeyed),
	}
}

// TestWorkStealingExpandAllocatesNothing: once the deques and the
// expansion scratch have grown to a round's high-water mark, dispatching,
// expanding and completing tasks allocates nothing — the tree builders
// share one expand per round and append into the runtime's reused slice.
func TestWorkStealingExpandAllocatesNothing(t *testing.T) {
	const cores = 20
	for name, gen := range expandPrograms(cores) {
		ws := NewWorkStealing(cores, gen, 1)
		tasks := 0
		for range 10 { // warm up to the deques' high-water mark
			tasks = runRound(ws, cores)
		}
		if tasks < 1000 {
			t.Fatalf("%s: a round ran only %d tasks", name, tasks)
		}
		if allocs := testing.AllocsPerRun(5, func() { runRound(ws, cores) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per round of ~%d tasks, want 0", name, allocs, tasks)
		}
	}
}

// BenchmarkWorkStealingExpand is the sched-layer row: one op is one task
// dispatched, expanded and completed on a warmed 20-core runtime.
func BenchmarkWorkStealingExpand(b *testing.B) {
	const cores = 20
	for _, name := range []string{"heat-irt", "uts"} {
		b.Run(name, func(b *testing.B) {
			ws := NewWorkStealing(cores, expandPrograms(cores)[name], 1)
			runRound(ws, cores)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				for c := 0; c < cores && i < b.N; c++ {
					if _, ok := ws.NextSegment(c, 0); ok {
						ws.Complete(c, 0)
						i++
					}
				}
			}
		})
	}
}
