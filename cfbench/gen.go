package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/service"
)

// Everything the program under test receives is generated here from the
// benchmark seed: the same seed gives the same specs and the same request
// sequence.

const (
	// sweepPrograms is K, the number of phase programs the sweep crosses
	// with every registered governor.
	sweepPrograms = 8
	// sweepShared is how many leading phases the K programs share.
	sweepShared = 24
	// sweepPhaseSec sizes each phase to about this many simulated seconds
	// (scenario.Definition.EstimateSeconds), so a program runs ~40 s: long
	// enough for the daemon's exploration to amortise.
	sweepPhaseSec = 4
	// sweepCores is the simulated socket of every generated spec.
	sweepCores = 20
)

// phaseKind is one TIPI regime the sweep programs draw phases from.
type phaseKind struct {
	name     string
	miss     float64
	ipc      float64
	exposure float64
}

// palette spans the TIPI range from compute-bound to memory-bound.
// The programs cycle through it in a fixed order and the seed only
// perturbs each phase's densities by a few percent: the cost of a sweep
// and the savings a governor can find must stay comparable across seeds,
// or seed-to-seed spread would swamp the changes the benchmark is meant
// to resolve.
var palette = []phaseKind{
	{"compute", 0.001, 2.0, 1},
	{"light", 0.008, 1.8, 0.9},
	{"mixed", 0.02, 1.5, 0.8},
	{"heavy", 0.04, 1.2, 0.7},
	{"memory", 0.07, 1.0, 0.5},
	{"stream", 0.1, 0.9, 0.4},
}

// densityJitter is the seed's relative perturbation of phase densities.
const densityJitter = 0.01

func ptr(v float64) *float64 { return &v }

// instructionsFor sizes a phase to the given simulated seconds at Scale 1.
func instructionsFor(p scenario.PhaseDef, sec float64) float64 {
	p.Instructions = 1e12
	d := scenario.Definition{Name: "size", Phases: []scenario.PhaseDef{p}}
	return sec * 1e12 / d.EstimateSeconds(sweepCores)
}

// sweepDefs returns the K inline work-sharing programs. They share every
// phase except the last, whose remote_frac differs per program.
// remote_frac is outside EstimateSeconds, so every program gets the same
// simulation deadline and the shared prefix is memoizable across them.
func sweepDefs(seed int64) []scenario.Definition {
	rng := rand.New(rand.NewSource(seed))
	shared := make([]scenario.PhaseDef, sweepShared)
	jitter := func() float64 { return 1 + densityJitter*(2*rng.Float64()-1) }
	for i := range shared {
		k := palette[i%len(palette)]
		p := scenario.PhaseDef{
			Name:         fmt.Sprintf("p%02d-%s", i, k.name),
			MissPerInstr: k.miss * jitter(),
			IPC:          k.ipc * jitter(),
			RemoteFrac:   0.1,
			Exposure:     ptr(k.exposure),
			JitterFrac:   0.05,
		}
		p.Instructions = instructionsFor(p, sweepPhaseSec)
		shared[i] = p
	}
	// The tweaked phase is memory-bound, where remote_frac matters.
	last := palette[4]
	lastPhase := scenario.PhaseDef{
		Name:         "tweaked-" + last.name,
		MissPerInstr: last.miss * jitter(),
		IPC:          last.ipc * jitter(),
		Exposure:     ptr(last.exposure),
		JitterFrac:   0.05,
	}
	lastPhase.Instructions = instructionsFor(lastPhase, sweepPhaseSec)
	// The same K remote_frac values every seed, in seeded order, so the
	// resumed suffixes cost the same across seeds.
	remote := rng.Perm(sweepPrograms)
	defs := make([]scenario.Definition, sweepPrograms)
	for k := range defs {
		p := lastPhase
		p.RemoteFrac = 0.05 * float64(1+remote[k])
		defs[k] = scenario.Definition{
			Name:          fmt.Sprintf("sweep-%d", k),
			Decomposition: scenario.WorkSharing,
			Phases:        append(append([]scenario.PhaseDef(nil), shared...), p),
		}
	}
	return defs
}

// sweepSpecs crosses the K programs with every registered governor,
// program-major: the two dispatch slots never run two programs of one
// governor at once, so each governor's first program is the only cold
// run and the expected prefix-hit count is exact.
func sweepSpecs(seed int64) []service.RunSpec {
	defs := sweepDefs(seed)
	runSeed := 1 + rand.New(rand.NewSource(seed^0x5eed)).Int63n(1<<30)
	var specs []service.RunSpec
	for k := range defs {
		for _, g := range governor.Names() {
			specs = append(specs, service.RunSpec{
				Experiment:  "run",
				ScenarioDef: &defs[k],
				Governor:    g,
				Cores:       sweepCores,
				Scale:       1,
				Reps:        1,
				Seed:        runSeed,
			}.Normalized())
		}
	}
	return specs
}

const (
	// hotSeeds is how many seeds each (workload, governor) pair of the
	// serve-hot set is run under.
	hotSeeds = 4
	// hotScale keeps the hot set's run specs cheap to fill: serve-hot
	// measures serving them, not simulating them.
	hotScale = 0.01
	// zipfS and zipfV shape the request skew, P(rank k) ∝ (zipfV + k)^-zipfS:
	// the ten hottest specs draw about a seventh of the requests and the
	// half of the set that cannot stay in the LRU about a sixth. The offset
	// flattens the head so that no single seeded pick dominates the mix.
	// Both are assumptions chosen for steady runs; no record of how
	// cfserve's callers repeat requests backs them.
	zipfS = 1.1
	zipfV = 20
)

// hotExperiments are the whole-experiment reports in the hot set, each
// pinned to a Zipf rank (chosen, like the skew, not measured) so that
// every seed serves the same mix of body sizes: Fig. 10 among the hottest specs, Table 1 in the LRU-resident
// middle, Fig. 11 in the store-served tail. Fig. 10 runs at the CLI's
// default scale, where exploration amortises, because serve-hot reports
// the energy saving its cached copy carries.
var hotExperiments = []struct {
	spec service.RunSpec
	rank int
}{
	{service.RunSpec{Experiment: "fig10", Scale: 0.3, Reps: 1}, 10},
	{service.RunSpec{Experiment: "table1", Scale: 0.05, Reps: 1}, 100},
	{service.RunSpec{Experiment: "fig11", Scale: 0.05, Reps: 1}, 300},
}

// hotSet is serve-hot's set of canonical specs: every Table 1 benchmark
// and built-in scenario under every governor at hotSeeds seeds, then the
// hotExperiments.
func hotSet(seed int64) []service.RunSpec {
	rng := rand.New(rand.NewSource(seed))
	workloads := append(bench.Names(), scenario.NamesOf(scenario.KindSynthetic)...)
	var specs []service.RunSpec
	for _, w := range workloads {
		for _, g := range governor.Names() {
			for i := 0; i < hotSeeds; i++ {
				specs = append(specs, service.RunSpec{
					Experiment: "run",
					Benchmark:  w,
					Governor:   g,
					Cores:      sweepCores,
					Scale:      hotScale,
					Reps:       1,
					Seed:       1 + rng.Int63n(1<<30),
				}.Normalized())
			}
		}
	}
	for _, e := range hotExperiments {
		specs = append(specs, e.spec.Normalized())
	}
	return specs
}

// requestSequence draws n request targets, indices into a hot set of m
// specs laid out as hotSet lays them out, from a Zipf distribution. The
// seed assigns the run specs to ranks; the experiments keep their pinned
// ranks.
func requestSequence(seed int64, n, m int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	runs := m - len(hotExperiments)
	pinned := map[int]int{}
	for i, e := range hotExperiments {
		pinned[e.rank] = runs + i
	}
	perm := rng.Perm(runs)
	rank := make([]int, m)
	for r := range rank {
		if idx, ok := pinned[r]; ok {
			rank[r] = idx
			continue
		}
		rank[r], perm = perm[0], perm[1:]
	}
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(m-1))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(rank[z.Uint64()])
	}
	return seq
}
