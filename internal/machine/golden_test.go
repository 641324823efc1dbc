package machine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/freq"
	"repro/internal/msr"
	"repro/internal/workload"
)

// scriptSource is a deterministic per-core program whose whole state is
// the per-core position, so a copy of it resumes exactly where the
// original stopped. Each core's lane has a distinct character: long
// segments carried across batches, bursts of tiny segments inside one
// quantum, repeated and changing segment shapes, zero-instruction and
// ExposureNone segments, a core that starts late and then idles between
// bursts, and a core that never gets work.
type scriptSource struct{ pos []int }

// scriptLen is how many segments each core's lane holds.
var scriptLen = [8]int{40, 900, 30, 120, 300, 6, 80, 0}

func scriptSeg(core, i int) workload.Segment {
	switch core {
	case 0: // medium segments, taxed by the daemon
		return workload.Segment{Instructions: 2.5e6 + 1e4*float64(i%5), MissPerInstr: 2e-3, IPC: 1.8, RemoteFrac: 0.25}
	case 1: // many tiny segments per quantum, every 7th empty
		if i%7 == 6 {
			return workload.Segment{MissPerInstr: 1e-3, IPC: 2}
		}
		return workload.Segment{Instructions: 2e4, MissPerInstr: 1e-3 * float64(1+i%3/2), IPC: 2, RemoteFrac: 0.5, Exposure: 0.8}
	case 2: // memory-bound under DDCM
		return workload.Segment{Instructions: 4e6, MissPerInstr: 0.02, IPC: 0.9, RemoteFrac: 0.1, Exposure: 0.5}
	case 3: // fully prefetched streaming, alternating with exposed misses
		exp := float64(workload.ExposureNone)
		if i%4 == 3 {
			exp = 0
		}
		return workload.Segment{Instructions: 4e5, MissPerInstr: 0.015, IPC: 1.2, RemoteFrac: 0.4, Exposure: exp}
	case 4: // runs of one shape, then a change: A A A B B C ...
		shape := []float64{1, 1, 1, 2, 2, 3}[i%6]
		return workload.Segment{Instructions: 1e5 * shape, MissPerInstr: 4e-3 * shape, IPC: 2.4 / shape, Exposure: 0.3 * shape}
	case 5: // very long segments carried across many batches and DVFS writes
		return workload.Segment{Instructions: 4e7, MissPerInstr: 5e-3, IPC: 1.5, RemoteFrac: 0.3, Exposure: 0.7}
	case 6: // starts late, then works in bursts: idle across batch
		// boundaries, then a segment of the same shape as its last one
		return workload.Segment{Instructions: 8e5, MissPerInstr: 8e-3, IPC: 1.1, RemoteFrac: 0.2}
	}
	panic("core 7 never gets work")
}

func (s *scriptSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	if s.pos[core] >= scriptLen[core] || (core == 6 && (now < 0.04 || int(now/3e-3)%2 == 1)) {
		return workload.Segment{}, false
	}
	seg := scriptSeg(core, s.pos[core])
	s.pos[core]++
	return seg, true
}

func (s *scriptSource) Complete(core int, now float64) {}

func (s *scriptSource) Done() bool {
	for c, p := range s.pos {
		if p < scriptLen[c] {
			return false
		}
	}
	return true
}

// demandFirmware moves the uncore with the smoothed miss demand, so the
// operating point changes between and within batches.
type demandFirmware struct{}

func (demandFirmware) Target(demand float64, min, max freq.Ratio) freq.Ratio {
	step := demand / 1.5e8
	if step > float64(max-min) {
		return max
	}
	return min + freq.Ratio(step)
}

// scriptMachine boots the scripted 8-core machine. Every component is a
// pure function of the simulated time, so building it twice yields two
// machines that a Snapshot can move between.
func scriptMachine(t *testing.T, src *scriptSource) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 8
	m := MustNew(cfg)
	m.SetFirmware(demandFirmware{})
	m.SetSource(src)
	write := func(addr uint32, core int, v uint64) {
		if err := m.File().Write(addr, core, v); err != nil {
			t.Errorf("msr write %#x: %v", addr, err)
		}
	}
	tick := func(now, period float64) int { return int(math.Round(now / period)) }
	// A daemon on core 0: a small tax, and every fourth tick more than a
	// whole quantum, so core 0's next quantum is overdrawn.
	m.Schedule(&Component{Period: 5e-3, Core: 0, Tick: func(now float64) float64 {
		if tick(now, 5e-3)%4 == 3 {
			return 0.8e-3
		}
		return 30e-6
	}}, 5e-3)
	// DVFS on cores 0, 4 and 5 while their segments are in flight, and
	// DDCM on cores 2 and 3 (levels 3..6, so duty stays below 1 except
	// when level 0 switches modulation off).
	m.Schedule(&Component{Period: 7e-3, Core: 1, Tick: func(now float64) float64 {
		k := tick(now, 7e-3)
		for _, c := range []int{0, 4, 5} {
			write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(uint8(12+(k*3+c)%12)))
		}
		write(msr.IA32ClockModulation, 2, msr.ClockModRaw(uint8(3+k%4)))
		write(msr.IA32ClockModulation, 3, msr.ClockModRaw(uint8([]int{0, 5, 6}[k%3])))
		return 0
	}}, 7e-3)
	// MSR 0x620: narrow the uncore range (snapping the operating point),
	// pin it, then reopen it for the firmware.
	m.Schedule(&Component{Period: 11e-3, Core: 2, Tick: func(now float64) float64 {
		switch tick(now, 11e-3) % 3 {
		case 0:
			write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(14, 20))
		case 1:
			write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(27, 27))
		default:
			write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(12, 30))
		}
		return 0
	}}, 11e-3)
	return m
}

// machineBits is the pinned outcome of a run: the IEEE-754 bits of the
// clock, energy, instruction total and average uncore frequency, each
// core's busy, stall and idle seconds and PMU retired instructions, and
// the PMU's local and remote miss counts.
func machineBits(m *Machine) []uint64 {
	b := []uint64{
		math.Float64bits(m.Now()),
		math.Float64bits(m.TotalEnergy()),
		math.Float64bits(m.TotalInstructions()),
		math.Float64bits(m.AvgUncoreGHz()),
	}
	snap := m.Snapshot()
	for i, c := range snap.Cores {
		b = append(b, math.Float64bits(c.BusySec), math.Float64bits(c.StallSec), math.Float64bits(c.IdleSec),
			math.Float64bits(snap.PMUInstr[i]))
	}
	return append(b, math.Float64bits(snap.PMUTorLocal), math.Float64bits(snap.PMUTorRemote))
}

// engineBitsGolden was recorded from the two-pass engine (one loop
// stepping every core, then a second loop folding their deltas). Any
// rewrite of the quantum loop must reproduce it bit for bit.
var engineBitsGolden = []uint64{
	0x3fbc083126e978db, 0x400bce6708d167be, 0x41c3056280000000, 0x3ffbd7c9c2bf3d78, // now, energy, instructions, avg uncore GHz
	0x3f9ff288959b1bfb, 0x3f6016ee081a210c, 0x3fb2c78b76b71b0e, 0x4198085800000000, // core 0 busy, stall, idle, PMU instructions
	0x3f6b7f22e321d197, 0x3f261fc57c192e3b, 0x3fbb21282d125db6, 0x416d731000000000, // core 1 busy, stall, idle, PMU instructions
	0x3fb906080f8631bb, 0x3f877343a2912988, 0x3f33c0a31121eb6a, 0x419c9c37fffffffc, // core 2 busy, stall, idle, PMU instructions
	0x3f9606e6c473b7ab, 0x3f5be5170a1125a8, 0x3fb616e319a44657, 0x4186e36000000001, // core 3 busy, stall, idle, PMU instructions
	0x3f94abbf39fcda27, 0x3f651ee8fdf25698, 0x3fb6344a107aaf9b, 0x4187d78400000001, // core 4 busy, stall, idle, PMU instructions
	0x3fb5c4b0beec2703, 0x3f805ee3d4a52213, 0x3f90de8fb5a2b640, 0x41ac9c37ffffffff, // core 5 busy, stall, idle, PMU instructions
	0x3f99e74f8832302b, 0x3f73a2ab59ec5935, 0x3fb454328f3e2739, 0x418e848000000000, // core 6 busy, stall, idle, PMU instructions
	0x0000000000000000, 0x0000000000000000, 0x3fbc083126e978da, 0x0000000000000000, // core 7 busy, stall, idle, PMU instructions
	0x4150cbe6fffffffe, 0x413009dc00000001, // PMU local and remote misses
}

// TestEngineBitsGolden pins the engine's arithmetic bit for bit on a
// scripted run that reaches every path of the quantum loop: DDCM duty
// below 1, a daemon tax larger than a quantum, DVFS writes landing while
// segments are carried across batch boundaries, a firmware-driven uncore
// and MSR 0x620 writes, ExposureNone and zero-instruction segments,
// several segments inside one quantum, idle cores, single-quantum Step
// batches, and a Snapshot/Restore into a second machine mid-run.
func TestEngineBitsGolden(t *testing.T) {
	srcA := &scriptSource{pos: make([]int, 8)}
	a := scriptMachine(t, srcA)
	a.Run(0.03)
	for range 5 {
		a.Step()
	}
	a.Run(0.035)
	if a.Finished() {
		t.Fatal("script finished before the snapshot point")
	}
	held := 0
	for _, c := range a.Snapshot().Cores {
		if c.HaveSeg {
			held++
		}
	}
	if held < 3 {
		t.Fatalf("only %d cores carry a segment into the snapshot; the restore path goes untested", held)
	}
	snap := a.Snapshot()

	srcB := &scriptSource{pos: append([]int(nil), srcA.pos...)}
	b := scriptMachine(t, srcB)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{a, b} {
		m.Run(2)
		if !m.Finished() {
			t.Fatal("script did not finish")
		}
	}
	got, cont := machineBits(b), machineBits(a)
	for i := range got {
		if got[i] != cont[i] {
			t.Fatalf("restored run diverged from the uninterrupted one at value %d: %v vs %v",
				i, math.Float64frombits(got[i]), math.Float64frombits(cont[i]))
		}
	}
	if !slices.Equal(got, engineBitsGolden) {
		var sb strings.Builder
		for i, v := range got {
			fmt.Fprintf(&sb, "\t%#016x, // %d: %v\n", v, i, math.Float64frombits(v))
		}
		t.Errorf("engine bits changed; got:\n%s", sb.String())
	}
}

// TestReusedSegmentShapeStillValidated: a fetched segment that repeats
// the previous one's densities must still pass Segment.Valid — a negative
// or NaN instruction count panics even when the cost coefficients could
// be reused.
func TestReusedSegmentShapeStillValidated(t *testing.T) {
	valid := workload.Segment{Instructions: 1e4, MissPerInstr: 0.01, IPC: 2, RemoteFrac: 0.2, Exposure: 0.5}
	for _, bad := range []float64{-1, math.NaN()} {
		seg := valid
		seg.Instructions = bad
		m := MustNew(smallConfig())
		m.SetSource(&listSource{segs: []workload.Segment{valid, seg}})
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "invalid segment") {
					t.Errorf("Instructions %v: recovered %v, want an invalid-segment panic", bad, r)
				}
			}()
			m.Run(1)
		}()
	}
}

// listSource hands core 0 its segments in order and never gives other
// cores work.
type listSource struct {
	segs []workload.Segment
	next int
}

func (s *listSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	if core != 0 || s.next >= len(s.segs) {
		return workload.Segment{}, false
	}
	s.next++
	return s.segs[s.next-1], true
}

func (s *listSource) Complete(core int, now float64) {}
func (s *listSource) Done() bool                     { return s.next >= len(s.segs) }
