package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/freq"
	"repro/internal/governor"
	"repro/internal/machine"
)

// DDCMRow compares the two core-throttling knobs the energy-efficiency
// literature the paper builds on uses: DVFS (voltage and frequency drop
// together) versus DDCM (clock gating at full voltage, per Bhalachandra et
// al. [6]). Both rows throttle compute throughput by the same nominal
// factor; DVFS should win on energy because voltage scales quadratically
// into dynamic power while DDCM pays full leakage and voltage throughout —
// the reason the paper's design builds on DVFS+UFS rather than DDCM.
type DDCMRow struct {
	Bench string
	// ThrottleFrac is the nominal compute-throughput factor vs max.
	ThrottleFrac float64
	// DVFS and DDCM are energy savings (%) and slowdown (%) vs the
	// unthrottled run.
	DVFSEnergySavings float64
	DVFSSlowdown      float64
	DDCMEnergySavings float64
	DDCMSlowdown      float64
}

// DDCMStudy throttles each benchmark to ≈70% compute throughput with both
// knobs (uncore pinned at the firmware's quiet point to isolate the core
// knob) and reports the energy/time outcomes.
func DDCMStudy(names []string, opt Options) ([]DDCMRow, error) {
	if len(names) == 0 {
		names = []string{"UTS", "SOR-irt", "Heat-irt", "MiniFE"}
	}
	const (
		dvfsRatio = 16 // 1.6 GHz of 2.3 → 0.696
		ddcmLevel = 6  // 6/8 duty → 0.75, the closest DDCM step
	)
	rows := make([]DDCMRow, len(names))
	err := forEach(len(names), opt, func(i int) error {
		spec, ok := bench.Get(names[i])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", names[i])
		}
		base, err := runThrottled(spec, opt, 23, 0)
		if err != nil {
			return err
		}
		dvfs, err := runThrottled(spec, opt, dvfsRatio, 0)
		if err != nil {
			return err
		}
		ddcm, err := runThrottled(spec, opt, 23, ddcmLevel)
		if err != nil {
			return err
		}
		rows[i] = DDCMRow{
			Bench:             spec.Name,
			ThrottleFrac:      float64(dvfsRatio) / 23,
			DVFSEnergySavings: 100 * (1 - dvfs.joules/base.joules),
			DVFSSlowdown:      100 * (dvfs.seconds/base.seconds - 1),
			DDCMEnergySavings: 100 * (1 - ddcm.joules/base.joules),
			DDCMSlowdown:      100 * (ddcm.seconds/base.seconds - 1),
		}
		return nil
	})
	return rows, err
}

type throttledOutcome struct {
	seconds float64
	joules  float64
}

func runThrottled(spec bench.Spec, opt Options, cfRatio uint8, ddcmLevel uint8) (throttledOutcome, error) {
	var out throttledOutcome
	mcfg := opt.machineConfig()
	m, err := machine.New(mcfg)
	if err != nil {
		return out, err
	}
	// The ddcm governor pins the uncore at the firmware's quiet point, so
	// only the core knob varies between the rows.
	att, err := governor.NewDDCM(freq.Ratio(cfRatio), ddcmLevel).Attach(m)
	if err != nil {
		return out, err
	}
	defer att.Detach()
	src, err := spec.Build(bench.Params{Cores: mcfg.Cores, Scale: opt.Scale, Seed: opt.Seed, Model: opt.Model})
	if err != nil {
		return out, err
	}
	m.SetSource(src)
	out.seconds = m.Run(spec.PaperSeconds*opt.Scale*8 + 30)
	if !m.Finished() {
		return out, fmt.Errorf("experiments: %s throttled run did not finish", spec.Name)
	}
	out.joules = m.TotalEnergy()
	return out, nil
}
