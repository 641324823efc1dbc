package machine

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/perfmon"
	"repro/internal/power"
	"repro/internal/workload"
)

// engine executes simulation quanta for one Machine. It owns the hot path:
// per-core state copied into engine-local buffers at the start of a batch
// and committed back at its end, and run-to-next-event batching that
// executes many quanta per dispatch.
//
// During a batch no other code touches machine state (MSR handlers,
// components and the public accessors all run between batches), so the
// engine steps cores without locks. Each quantum is one pass over the
// cores in index order: a core is stepped and its work folded straight
// into its batch accumulators and the quantum's socket totals. The
// cross-core coupling — the miss demand EWMA, the queueing-model stall
// cost, package power and the firmware uncore governor — is updated once
// per quantum, after the pass.
//
// Every term that cannot change within a batch is computed once: each
// core's power coefficients at batch start (DVFS and DDCM writes land
// between batches), a segment's cost coefficients when it is fetched or
// carried in (and not again for a fetched segment of the same shape), and
// the uncore's bandwidth, latency and power coefficients whenever its
// ratio changes.
type engine struct {
	cfg  Config
	pmu  *perfmon.PMU
	rapl *power.Rapl

	// Batch inputs, written by the snapshot.
	src       workload.Source
	firmware  UncoreFirmware
	boundary  BoundarySource // src when it counts boundaries, else nil
	boundaryN int            // boundary count when the batch started
	dt        float64
	cores     []engineCore

	// Quantum-evolving globals.
	now                  float64
	demandEWMA           float64
	unc                  uncoreTerms
	uncoreMin, uncoreMax freq.Ratio
	stall                float64 // seconds per exposed miss this quantum
	quanta               int     // batch budget
	quantum              int     // quanta executed so far in this batch
	batchOver            bool

	// Batch accumulators committed to the Machine when the batch ends.
	totInstr, totMissL, totMissR float64
	uncoreGHzSecs                float64
	retired                      []float64 // reusable PMU batch-update buffer
}

// engineCore is one core's state for the length of a batch.
type engineCore struct {
	// Inputs fixed for the batch: frequencies and DDCM duty only change
	// through MSR writes, which happen between batches.
	hz     float64     // core clock in Hz
	duty   float64     // DDCM duty, sanitised to (0, 1]
	stolen float64     // daemon tax charged against the batch's first quantum
	power  power.Terms // power coefficients at this batch's clock

	// Execution state. invCompute and stallCoef are seg's per-instruction
	// cost coefficients at this batch's clock and duty; priced reports
	// that they are valid for seg's shape in this batch.
	seg        workload.Segment
	segLeft    float64
	haveSeg    bool
	priced     bool
	invCompute float64 // seconds of issue time per instruction
	stallCoef  float64 // exposed misses per instruction

	// Totals over the batch.
	instr, computeSec, stallSec, idleSec float64
}

// quantumDelta is one core's work in one quantum, folded into its batch
// accumulators and the quantum's socket totals as soon as the core has
// stepped.
type quantumDelta struct {
	instr      float64
	missLocal  float64
	missRemote float64
	computeSec float64
	stallSec   float64
	idleSec    float64
}

// uncoreTerms holds everything that depends only on the uncore ratio.
type uncoreTerms struct {
	ratio     freq.Ratio
	ghz       float64
	bandwidth float64 // achievable misses/second
	latency   float64 // unloaded seconds per miss
	power     power.Terms
}

func newEngine(cfg Config, pmu *perfmon.PMU, rapl *power.Rapl) *engine {
	e := &engine{
		cfg:     cfg,
		pmu:     pmu,
		rapl:    rapl,
		cores:   make([]engineCore, cfg.Cores),
		retired: make([]float64, cfg.Cores),
	}
	e.unc = uncoreAt(&cfg, cfg.UncoreGrid.Max)
	return e
}

// uncoreAt computes the terms of uncore ratio r.
func uncoreAt(cfg *Config, r freq.Ratio) uncoreTerms {
	ghz := r.GHz()
	return uncoreTerms{
		ratio:     r,
		ghz:       ghz,
		bandwidth: cfg.Mem.Bandwidth(ghz),
		latency:   cfg.Mem.Latency(ghz),
		power:     cfg.Power.UncoreTerms(ghz),
	}
}

// price computes seg's cost coefficients at the core's batch clock and
// duty. DDCM gating stretches issue time by 1/duty (the clock only runs
// duty of the time) while in-flight memory accesses drain at full speed —
// the knob throttles compute without touching voltage.
func (c *engineCore) price(seg workload.Segment) {
	c.invCompute = 1 / (seg.IPC * c.hz * c.duty)
	c.stallCoef = seg.MissPerInstr * seg.StallFraction()
	c.priced = true
}

// run executes the prepared batch to completion.
func (e *engine) run() {
	for !e.batchOver {
		e.step()
	}
}

// step executes one quantum: every core in index order, then the
// socket-wide miss demand EWMA, package power into RAPL, and the firmware
// uncore governor.
func (e *engine) step() {
	dt := e.dt
	first := e.quantum == 0
	var instr, missL, missR, corePower float64
	anySeg := false
	for i := range e.cores {
		c := &e.cores[i]
		budget := dt
		if first {
			budget -= c.stolen
		}
		// A budget of zero or less means the daemon ate the whole quantum
		// (pathological Tinv): the core makes no progress and the
		// overdraft is dropped.
		var d quantumDelta
		if budget > 0 {
			// A segment carried in from the previous quantum runs straight
			// away; the source is only asked when the core has none. This
			// loop holds the engine's only copy of the advance arithmetic.
			for budget > 1e-12 {
				if !c.haveSeg && !e.fetch(i, c) {
					break
				}
				perInstrCompute := c.invCompute
				perInstrStall := float64(c.stallCoef * e.stall)
				perInstr := perInstrCompute + perInstrStall
				n := budget / perInstr
				finished := n >= c.segLeft
				if finished {
					n = c.segLeft
					c.segLeft = 0
					c.haveSeg = false
				} else {
					c.segLeft -= n
				}
				budget -= float64(n * perInstr)
				d.instr += n
				d.computeSec += float64(n * perInstrCompute)
				d.stallSec += float64(n * perInstrStall)
				miss := n * c.seg.MissPerInstr
				d.missRemote += float64(miss * c.seg.RemoteFrac)
				d.missLocal += float64(miss * (1 - c.seg.RemoteFrac))
				if finished {
					e.src.Complete(i, e.now)
				}
			}
			if budget > 0 {
				d.idleSec += budget
			}
		}
		instr += d.instr
		missL += d.missLocal
		missR += d.missRemote
		c.instr += d.instr
		c.computeSec += d.computeSec
		c.stallSec += d.stallSec
		c.idleSec += d.idleSec
		// Under DDCM the stretched compute time switches transistors only
		// duty of the time; voltage and leakage are untouched, which is
		// the knob's classic energy disadvantage vs DVFS.
		activity := (float64(d.computeSec*c.duty) + float64(e.cfg.StallActivity*d.stallSec)) / dt
		corePower += c.power.Power(activity)
		if c.haveSeg {
			anySeg = true
		}
	}
	missRate := (missL + missR) / dt
	alpha := e.cfg.TrafficAlpha
	e.demandEWMA = float64(alpha*missRate) + float64((1-alpha)*e.demandEWMA)
	rho := e.cfg.Mem.UtilizationAt(e.demandEWMA, e.unc.bandwidth)
	pkgPower := corePower + e.unc.power.Power(rho) + e.cfg.Power.Base
	e.totInstr += instr
	e.totMissL += missL
	e.totMissR += missR
	e.uncoreGHzSecs += float64(e.unc.ghz * dt)
	e.now += dt
	e.rapl.Deposit(float64(pkgPower*dt), e.now)

	// Firmware moves the uncore within the 0x620 range once per quantum.
	if e.firmware != nil && e.uncoreMin < e.uncoreMax {
		r := e.cfg.UncoreGrid.Clamp(e.firmware.Target(e.demandEWMA, e.uncoreMin, e.uncoreMax))
		if r < e.uncoreMin {
			r = e.uncoreMin
		}
		if r > e.uncoreMax {
			r = e.uncoreMax
		}
		if r != e.unc.ratio {
			e.unc = uncoreAt(&e.cfg, r)
			rho = e.cfg.Mem.UtilizationAt(e.demandEWMA, e.unc.bandwidth)
		}
	}
	e.stall = e.cfg.Mem.StallAt(e.unc.latency, rho)

	e.quantum++
	if e.quantum >= e.quanta {
		e.batchOver = true
	}
	// Source drained and no core holds an in-flight segment: the machine is
	// finished, stop the batch early regardless of its quantum budget.
	if !anySeg {
		if e.src != nil && e.src.Done() {
			e.batchOver = true
		}
		// A boundary source crossed a region boundary this quantum (the
		// barrier's release latency guarantees no segment of the next
		// region is in flight yet): end the batch here so the commit
		// lands exactly on the boundary. Always on — see BoundarySource.
		if e.boundary != nil && e.boundary.BoundaryCount() != e.boundaryN {
			e.batchOver = true
		}
	}
}

// fetch gives core i its next segment, completing any zero-instruction
// segments on the way. It reports false when the source has nothing for
// the core.
func (e *engine) fetch(i int, c *engineCore) bool {
	for e.src != nil {
		seg, ok := e.src.NextSegment(i, e.now)
		if !ok {
			return false
		}
		if !seg.Valid() {
			panic(fmt.Sprintf("machine: invalid segment %v from source", seg))
		}
		if !c.priced || seg.IPC != c.seg.IPC || seg.MissPerInstr != c.seg.MissPerInstr || seg.Exposure != c.seg.Exposure {
			c.price(seg)
		}
		c.seg = seg
		c.segLeft = seg.Instructions
		if c.segLeft > 0 {
			c.haveSeg = true
			return true
		}
		e.src.Complete(i, e.now)
	}
	return false
}
