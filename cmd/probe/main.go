// Command probe is a development aid: it runs benchmarks at fixed
// frequency points and under the daemon, printing the equilibria the
// calibration tests assert against.
//
// With no arguments it probes the historical calibration set; any Table 1
// benchmark names given as arguments replace it:
//
//	probe                      # Heat-irt/SOR-irt sweeps + 4 daemon runs
//	probe UTS AMG              # daemon runs for the named benchmarks
//	probe -scale 0.2 Heat-irt  # longer daemon run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/tipi"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.12, "daemon-run length relative to the paper's executions")
		sweep = flag.Bool("sweep", false, "with benchmark args: also run the fixed-frequency sweep")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: probe [flags] [benchmark ...]\n\nbenchmarks: %s\n\nflags:\n",
			strings.Join(bench.Names(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args(), *scale, *sweep); err != nil {
		fmt.Fprintf(os.Stderr, "probe: %v\n", err)
		os.Exit(1)
	}
}

func run(names []string, scale float64, sweep bool) error {
	if len(names) == 0 {
		// The historical calibration set: two fixed-frequency sweeps plus
		// daemon runs across the TIPI regimes.
		for _, uf := range []uint8{30, 26, 22, 18, 14, 12} {
			if err := fixedRun("Heat-irt", 12, uf); err != nil {
				return err
			}
		}
		fmt.Println()
		for _, uf := range []uint8{30, 22, 14, 12} {
			if err := fixedRun("SOR-irt", 23, uf); err != nil {
				return err
			}
		}
		fmt.Println()
		names = []string{"UTS", "Heat-irt", "SOR-irt", "AMG"}
	} else if sweep {
		for _, name := range names {
			for _, uf := range []uint8{30, 22, 14, 12} {
				if err := fixedRun(name, 23, uf); err != nil {
					return err
				}
			}
		}
		fmt.Println()
	}
	for _, name := range names {
		if err := daemonRun(name, scale); err != nil {
			return err
		}
	}
	return nil
}

// getSpec resolves a Table 1 benchmark name with a self-diagnosing error.
func getSpec(name string) (bench.Spec, error) {
	spec, ok := bench.Get(name)
	if !ok {
		return bench.Spec{}, fmt.Errorf("unknown benchmark %q (known: %s)", name, strings.Join(bench.Names(), ", "))
	}
	return spec, nil
}

// fixedRun probes one benchmark with both frequency domains pinned.
func fixedRun(name string, cf, uf uint8) error {
	spec, err := getSpec(name)
	if err != nil {
		return err
	}
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		return err
	}
	for c := 0; c < 20; c++ {
		m.Device().Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(cf))
	}
	m.Device().Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(uf, uf))
	src, err := spec.Build(bench.Params{Cores: 20, Scale: 0.04, Seed: 1})
	if err != nil {
		return err
	}
	m.SetSource(src)
	sec := m.Run(300)
	if !m.Finished() {
		return fmt.Errorf("%s at CF=%d UF=%d did not finish in 300 simulated seconds", name, cf, uf)
	}
	ips := m.TotalInstructions() / sec
	local, remote := m.TotalMisses()
	demand := (local + remote) / sec
	jpi := m.TotalEnergy() / m.TotalInstructions()
	fmt.Printf("%-9s CF=%d UF=%d  t=%6.2fs  IPS=%6.2fG  demand=%5.3fG  P=%5.1fW  JPI=%.3fnJ\n",
		name, cf, uf, sec, ips/1e9, demand/1e9, m.TotalEnergy()/sec, jpi*1e9)
	return nil
}

// daemonRun probes one benchmark under the Cuttlefish daemon and prints
// the slab list it converged to.
func daemonRun(name string, scale float64) error {
	spec, err := getSpec(name)
	if err != nil {
		return err
	}
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	d, err := core.NewDaemon(cfg, m.Device(), 20, m.Config().CoreGrid, m.Config().UncoreGrid, 0)
	if err != nil {
		return err
	}
	m.Schedule(&machine.Component{Period: cfg.TinvSec, Core: 0, Tick: d.Tick}, cfg.TinvSec)
	src, err := spec.Build(bench.Params{Cores: 20, Scale: scale, Seed: 1})
	if err != nil {
		return err
	}
	m.SetSource(src)
	sec := m.Run(400)
	fmt.Printf("%-9s daemon t=%6.2fs E=%6.1fJ samples=%d err=%v finished=%v\n",
		name, sec, m.TotalEnergy(), d.Samples(), d.Err(), m.Finished())
	if !m.Finished() {
		return fmt.Errorf("%s daemon run did not finish in 400 simulated seconds", name)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%s daemon: %w", name, err)
	}
	for _, n := range d.List().Nodes() {
		cf, uf := "-", "-"
		if n.CF.HasOpt() {
			cf = n.CF.OptRatio().String()
		}
		if n.UF.HasOpt() {
			uf = n.UF.OptRatio().String()
		}
		fmt.Printf("   slab %-12s hits=%5d  CF[%d,%d] opt=%s  UF[%d,%d] opt=%s\n",
			n.Slab.Format(tipi.DefaultSlabWidth), n.Hits,
			n.CF.LB(), n.CF.RB(), cf, n.UF.LB(), n.UF.RB(), uf)
	}
	return nil
}
