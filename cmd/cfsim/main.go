// Command cfsim runs one benchmark under one registered governor on the
// simulated machine and reports the run: time, energy, EDP, the frequency
// decisions a daemon-backed governor took, and optionally a per-Tinv CSV
// trace (TIPI, JPI, instructions, joules, CF, UF) suitable for plotting
// Fig. 2-style timelines.
//
// Examples:
//
//	cfsim -bench Heat-irt -governor cuttlefish
//	cfsim -bench AMG -governor default -trace amg.csv
//	cfsim -bench SOR-irt -governor static -cf 16 -uf 22
//	cfsim -bench UTS -governor ondemand -format json
//	cfsim -list-governors
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/tipi"
	"repro/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "Heat-irt", "benchmark name (see -list)")
		govName   = flag.String("governor", governor.Cuttlefish, "registered governor (see -list-governors)")
		policy    = flag.String("policy", "", "deprecated alias for -governor")
		model     = flag.String("model", "openmp", "openmp | hclib")
		scale     = flag.Float64("scale", 0.3, "run length relative to the paper's (1.0 ≈ 60-80s)")
		seed      = flag.Int64("seed", 1, "RNG seed")
		cores     = flag.Int("cores", 20, "simulated cores")
		tinv      = flag.Float64("tinv", 20e-3, "daemon profiling interval (s)")
		cf        = flag.Int("cf", 0, "static governor core ratio, ×100 MHz (0 = grid max)")
		uf        = flag.Int("uf", 0, "static governor uncore ratio, ×100 MHz (0 = grid max)")
		format    = flag.String("format", "text", "output format: text | json | csv")
		traceOut  = flag.String("trace", "", "write per-Tinv CSV trace to this file")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		listGov   = flag.Bool("list-governors", false, "list registered governors and exit")
	)
	flag.Parse()
	if *list {
		fmt.Println("benchmarks (Table 1):")
		for _, s := range bench.All() {
			hclib := ""
			if s.HClibPort {
				hclib = " [hclib]"
			}
			fmt.Printf("  %-10s %-16s TIPI %.3f-%.3f%s\n", s.Name, s.Style, s.TIPILow, s.TIPIHigh, hclib)
		}
		return
	}
	if *listGov {
		for _, info := range governor.List() {
			fmt.Printf("%-18s %s\n", info.Name, info.Description)
		}
		return
	}
	if *policy != "" {
		*govName = *policy
	}
	cfg := runConfig{
		govName: *govName, model: *model, scale: *scale, seed: *seed,
		cores: *cores, tinv: *tinv, cf: freq.Ratio(*cf), uf: freq.Ratio(*uf),
		format: *format, traceOut: *traceOut,
	}
	if err := run(*benchName, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cfsim: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	govName  string
	model    string
	scale    float64
	seed     int64
	cores    int
	tinv     float64
	cf, uf   freq.Ratio
	format   string
	traceOut string
}

func run(benchName string, rc runConfig) error {
	if !report.ValidFormat(rc.format) {
		// Fail before burning simulation time on a typo.
		return fmt.Errorf("unknown format %q (want text, json or csv)", rc.format)
	}
	spec, ok := bench.Get(benchName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (use -list)", benchName)
	}
	g, err := governor.New(rc.govName, governor.Tuning{TinvSec: rc.tinv, CF: rc.cf, UF: rc.uf})
	if err != nil {
		return err
	}
	mcfg := machine.DefaultConfig()
	mcfg.Cores = rc.cores
	m, err := machine.New(mcfg)
	if err != nil {
		return err
	}

	att, err := g.Attach(m)
	if err != nil {
		return err
	}
	defer att.Detach()

	// An observer profiler records the timeline regardless of governor.
	rec := &trace.Recorder{}
	if rc.traceOut != "" {
		prof, err := core.NewProfiler(m.Device(), rc.cores)
		if err != nil {
			return err
		}
		if err := prof.Reset(); err != nil {
			return err
		}
		m.Schedule(&machine.Component{
			Period: rc.tinv,
			Tick: func(now float64) float64 {
				s, err := prof.Sample()
				if err != nil || !s.OK {
					return 0
				}
				rec.Add(trace.Point{
					Time: now, TIPI: s.TIPI, JPI: s.JPI,
					Instr: s.Instr, Joules: s.Joules,
					CF: m.CoreRatio(rc.cores - 1), UF: m.UncoreRatio(),
				})
				return 0
			},
		}, rc.tinv)
	}

	src, err := spec.Build(bench.Params{Cores: rc.cores, Scale: rc.scale, Seed: rc.seed, Model: bench.Model(rc.model)})
	if err != nil {
		return err
	}
	m.SetSource(src)
	sec := m.Run(spec.PaperSeconds*rc.scale*6 + 60)
	if !m.Finished() {
		return fmt.Errorf("%s did not finish", spec.Name)
	}
	daemon := att.Daemon()
	samples, slabs := 0, 0
	if daemon != nil {
		samples, slabs = daemon.Samples(), daemon.List().Len()
	}
	if err := att.Detach(); err != nil {
		return err
	}

	joules := m.TotalEnergy()
	local, remote := m.TotalMisses()

	// Write the trace before the report so the status line never lands
	// inside machine-readable output; in json/csv mode it goes to stderr.
	if rc.traceOut != "" {
		f, err := os.Create(rc.traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	switch rc.format {
	case "json", "csv":
		rep := report.New("cfsim", "benchmark", "governor", "model", "scale", "seconds", "joules", "avg_watts", "edp", "tipi", "remote_miss_pct", "avg_uncore_ghz", "daemon_samples", "daemon_slabs")
		rep.Governor = rc.govName
		rep.AddRow(spec.Name, rc.govName, rc.model, rc.scale, sec, joules, joules/sec, joules*sec,
			(local+remote)/m.TotalInstructions(), 100*remote/(local+remote), m.AvgUncoreGHz(), samples, slabs)
		if err := rep.Write(os.Stdout, rc.format); err != nil {
			return err
		}
		if rc.traceOut != "" {
			fmt.Fprintf(os.Stderr, "trace: %d samples -> %s\n", rec.Len(), rc.traceOut)
		}
	default: // text, validated above
		fmt.Printf("%s under %s (%s, scale %.2f)\n", spec.Name, rc.govName, rc.model, rc.scale)
		fmt.Printf("  time    %8.2f s\n", sec)
		fmt.Printf("  energy  %8.1f J  (%.1f W avg)\n", joules, joules/sec)
		fmt.Printf("  EDP     %8.0f Js\n", joules*sec)
		fmt.Printf("  TIPI    %8.4f  (%.0f%% remote)\n",
			(local+remote)/m.TotalInstructions(), 100*remote/(local+remote))
		fmt.Printf("  avg UF  %8.2f GHz\n", m.AvgUncoreGHz())
		if daemon != nil {
			fmt.Printf("  daemon  %d samples, %d slab(s)\n", samples, slabs)
			for _, n := range daemon.List().Nodes() {
				cfOpt, ufOpt := "-", "-"
				if n.CF.HasOpt() {
					cfOpt = n.CF.OptRatio().String()
				}
				if n.UF.HasOpt() {
					ufOpt = n.UF.OptRatio().String()
				}
				fmt.Printf("    %-13s %6d hits  CFopt %-8s UFopt %s\n",
					n.Slab.Format(tipi.DefaultSlabWidth), n.Hits, cfOpt, ufOpt)
			}
		}
		if rc.traceOut != "" {
			fmt.Printf("  trace   %d samples -> %s\n", rec.Len(), rc.traceOut)
		}
	}
	return nil
}
