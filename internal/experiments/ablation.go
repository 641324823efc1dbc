package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/stats"
)

// AblationVariant names a daemon configuration with one or more of the
// §4.4/§4.5/Algorithm-3 optimisations removed.
type AblationVariant string

const (
	// AblationFull is the paper's configuration (all optimisations on).
	AblationFull AblationVariant = "full"
	// AblationNoSeeding removes the §4.4 neighbour seeding of new slabs.
	AblationNoSeeding AblationVariant = "no-seeding"
	// AblationNoRevalidation removes the §4.5 bound propagation.
	AblationNoRevalidation AblationVariant = "no-revalidation"
	// AblationNoUFEstimation removes Algorithm 3's uncore window.
	AblationNoUFEstimation AblationVariant = "no-uf-estimation"
	// AblationNone removes all three: every slab explores both domains
	// over the full grids independently.
	AblationNone AblationVariant = "none"
)

// AblationVariants lists the studied configurations in report order.
var AblationVariants = []AblationVariant{
	AblationFull, AblationNoSeeding, AblationNoRevalidation, AblationNoUFEstimation, AblationNone,
}

func (v AblationVariant) apply(cfg *core.Config) error {
	switch v {
	case AblationFull:
	case AblationNoSeeding:
		cfg.DisableNeighborSeeding = true
	case AblationNoRevalidation:
		cfg.DisableRevalidation = true
	case AblationNoUFEstimation:
		cfg.DisableUFEstimation = true
	case AblationNone:
		cfg.DisableNeighborSeeding = true
		cfg.DisableRevalidation = true
		cfg.DisableUFEstimation = true
	default:
		return fmt.Errorf("experiments: unknown ablation variant %q", v)
	}
	return nil
}

// AblationRow reports one variant on one benchmark.
type AblationRow struct {
	Bench   string
	Variant AblationVariant
	// ExplorationPct is the share of Tinv samples spent with the current
	// slab's optima unresolved — the quantity the optimisations minimise.
	ExplorationPct float64
	// ResolvedPct is the share of distinct slabs with both optima found.
	ResolvedPct float64
	// EnergySavingsPct and SlowdownPct are vs the Default environment.
	EnergySavingsPct float64
	SlowdownPct      float64
}

// Ablation quantifies the paper's runtime optimisations on multi-slab
// benchmarks (single-slab benchmarks cannot benefit from neighbour
// information by construction).
func Ablation(names []string, opt Options) ([]AblationRow, error) {
	if len(names) == 0 {
		names = []string{"Heat-ws", "MiniFE", "HPCCG", "AMG"}
	}
	type job struct {
		bench   int
		variant AblationVariant
		rep     int
	}
	specs := make([]bench.Spec, len(names))
	for i, n := range names {
		s, ok := bench.Get(n)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", n)
		}
		specs[i] = s
	}
	var jobs []job
	for b := range specs {
		for _, v := range AblationVariants {
			for r := 0; r < opt.Reps; r++ {
				jobs = append(jobs, job{bench: b, variant: v, rep: r})
			}
		}
	}
	outcomes := make([]ablatedOutcome, len(jobs))
	err := forEach(len(jobs), opt, func(i int) error {
		j := jobs[i]
		o, err := runAblated(specs[j.bench], j.variant, opt, opt.Seed+int64(j.rep))
		if err != nil {
			return err
		}
		outcomes[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Defaults for the savings baseline.
	defaults := make([]RunResult, len(specs)*opt.Reps)
	err = forEach(len(defaults), opt, func(i int) error {
		b, r := i/opt.Reps, i%opt.Reps
		res, err := RunOne(specs[b], governor.Default, opt, opt.Seed+int64(r))
		if err != nil {
			return err
		}
		defaults[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	for b, spec := range specs {
		for vi, v := range AblationVariants {
			var expl, res, sav, slow []float64
			for r := 0; r < opt.Reps; r++ {
				o := outcomes[(b*len(AblationVariants)+vi)*opt.Reps+r]
				def := defaults[b*opt.Reps+r]
				expl = append(expl, o.explorationPct)
				res = append(res, o.resolvedPct)
				sav = append(sav, stats.SavingsPercent(def.Joules, o.joules))
				slow = append(slow, stats.SlowdownPercent(def.Seconds, o.seconds))
			}
			rows = append(rows, AblationRow{
				Bench:            spec.Name,
				Variant:          v,
				ExplorationPct:   stats.Mean(expl),
				ResolvedPct:      stats.Mean(res),
				EnergySavingsPct: stats.Mean(sav),
				SlowdownPct:      stats.Mean(slow),
			})
		}
	}
	return rows, nil
}

// ablatedOutcome is one ablated run's measurements.
type ablatedOutcome struct {
	explorationPct float64
	resolvedPct    float64
	seconds        float64
	joules         float64
}

func runAblated(spec bench.Spec, v AblationVariant, opt Options, seed int64) (ablatedOutcome, error) {
	// Resolve Tinv/warmup exactly like every registry-built daemon, then
	// layer the ablation switches on top.
	dcfg := opt.tuning().DaemonConfig(core.PolicyBoth)
	if err := v.apply(&dcfg); err != nil {
		return ablatedOutcome{}, err
	}
	res, err := simulate(opt, runPlan{
		name:    spec.Name,
		gov:     governor.NewCuttlefishFromConfig(dcfg),
		maxSim:  spec.PaperSeconds*opt.Scale*6 + opt.WarmupSec + 30,
		prepare: benchSource(spec, opt, seed),
	})
	if err != nil {
		return ablatedOutcome{}, err
	}
	out := ablatedOutcome{seconds: res.Seconds, joules: res.Joules}
	daemon := res.Daemon
	if s := daemon.Samples(); s > 0 {
		out.explorationPct = 100 * float64(daemon.ExplorationSamples()) / float64(s)
	}
	nodes := daemon.List().Nodes()
	if len(nodes) > 0 {
		resolved := 0
		for _, n := range nodes {
			if n.CF.HasOpt() && n.UF.HasOpt() {
				resolved++
			}
		}
		out.resolvedPct = 100 * float64(resolved) / float64(len(nodes))
	}
	return out, nil
}
