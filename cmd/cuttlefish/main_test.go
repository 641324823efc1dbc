package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

func tinyOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = 0.02
	o.Reps = 1
	return o
}

// TestRunRejectsUnknownGovernor is the CLI-side registry check: a typo in
// -governor must fail fast, before any simulation runs.
func TestRunRejectsUnknownGovernor(t *testing.T) {
	o := tinyOptions()
	o.Governor = "turbo-boost"
	if err := run("table1", o, "json"); err == nil {
		t.Error("unknown -governor must error")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run("table9", tinyOptions(), "text"); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestTable1ReportEncodesAcrossGovernors backs the acceptance criterion:
// `cuttlefish -governor=<name> table1 -format json` must produce valid
// JSON for every registered environment the comparison covers.
func TestTable1ReportEncodesAcrossGovernors(t *testing.T) {
	for _, gov := range []string{"cuttlefish", "cuttlefish-core", "cuttlefish-uncore", "default", "static", "ddcm"} {
		o := tinyOptions()
		o.Governor = gov
		rep, err := build("table1", o)
		if err != nil {
			t.Fatalf("%s: %v", gov, err)
		}
		if rep.Governor != gov {
			t.Errorf("report governor = %q, want %q", rep.Governor, gov)
		}
		if len(rep.Rows) != 10 {
			t.Errorf("%s: rows = %d, want 10", gov, len(rep.Rows))
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: marshal: %v", gov, err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s: invalid JSON", gov)
		}
	}
}

// TestRunExperimentRequiresBench: the "run" experiment must fail fast
// without a -bench, before any simulation time.
func TestRunExperimentRequiresBench(t *testing.T) {
	benchName = ""
	if err := run("run", tinyOptions(), "text"); err == nil {
		t.Error("run without -bench must error")
	}
}

// TestSweepRequiresSpec: the sweep subcommand must fail fast without a
// -spec file, and on an unreadable or invalid one.
func TestSweepRequiresSpec(t *testing.T) {
	sweepSpec = ""
	if err := run("sweep", tinyOptions(), "text"); err == nil {
		t.Error("sweep without -spec must error")
	}
	sweepSpec = filepath.Join(t.TempDir(), "nope.json")
	if err := run("sweep", tinyOptions(), "text"); err == nil {
		t.Error("sweep with a missing spec file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"axes": {"benchmarcks": []}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sweepSpec = bad
	defer func() { sweepSpec = "" }()
	if err := run("sweep", tinyOptions(), "text"); err == nil {
		t.Error("sweep with a typoed axis must error")
	}
}

// TestSweepInProcessEndToEnd drives a tiny real sweep through the CLI
// path: in-process backend, persistent store, warm re-run from disk.
func TestSweepInProcessEndToEnd(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "sweep.json")
	spec := `{
		"name": "cli-test",
		"axes": {
			"benchmarks": ["UTS"],
			"governors": ["default", "cuttlefish"],
			"scales": [0.02],
			"reps": [1]
		}
	}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	sweepSpec = specFile
	storeDir = filepath.Join(dir, "store")
	defer func() { sweepSpec, storeDir = "", "" }()
	o := tinyOptions()
	if err := run("sweep", o, "json"); err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	// Warm re-run: everything must come from the persistent store.
	if err := run("sweep", o, "json"); err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	st, err := store.Open(storeDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Errorf("store holds %d entries, want 2 (one per grid point)", st.Len())
	}
}

// parseForTest runs the CLI's two-stage parse on a fresh flag set,
// returning the experiment, the options and the globals it set.
func parseForTest(t *testing.T, args ...string) (name, gotBench string, opt experiments.Options, err error) {
	t.Helper()
	benchName, scenarioFile, format, remote = "", "", "text", ""
	listGov, listScen = false, false
	backends = nil
	t.Cleanup(func() {
		benchName, scenarioFile, format, remote = "", "", "text", ""
		listGov, listScen = false, false
		backends = nil
	})
	opt = experiments.DefaultOptions()
	fs := newFlagSet(&opt)
	name, err = parseArgs(fs, args)
	return name, benchName, opt, err
}

// TestFlagsAcceptedBeforeAndAfterSubcommand is the regression test for
// the two-stage parsing fix: `cuttlefish -seed 7 run -bench X` and
// `cuttlefish run -seed 7 -bench X` must parse identically.
func TestFlagsAcceptedBeforeAndAfterSubcommand(t *testing.T) {
	cases := [][]string{
		{"-seed", "7", "run", "-bench", "UTS"},
		{"run", "-seed", "7", "-bench", "UTS"},
		{"-bench", "UTS", "-seed", "7", "run"},
		{"run", "-seed", "7", "-bench", "UTS", "-format", "text"},
	}
	for _, args := range cases {
		name, gotBench, opt, err := parseForTest(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if name != "run" || gotBench != "UTS" || opt.Seed != 7 {
			t.Errorf("%v: name=%q bench=%q seed=%d, want run/UTS/7", args, name, gotBench, opt.Seed)
		}
	}
}

// TestFlagErrorsNameTheFlag: a bad flag fails with an error naming it,
// whether it appears before or after the subcommand (the old second
// parse exited without any message of its own).
func TestFlagErrorsNameTheFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-sed", "7", "run"},
		{"run", "-sed", "7"},
		{"-seed", "7", "run", "-sed", "9"},
	} {
		_, _, _, err := parseForTest(t, args...)
		if err == nil || !strings.Contains(err.Error(), "-sed") {
			t.Errorf("%v: err = %v, want the offending flag named", args, err)
		}
	}
	if _, _, _, err := parseForTest(t, "run", "UTS"); err == nil ||
		!strings.Contains(err.Error(), "unexpected argument") {
		t.Errorf("second positional: err = %v, want unexpected-argument", err)
	}
}

// TestRunScenarioFile drives a JSON-only scenario through the CLI run
// path: parse, build, one report row named after the definition.
func TestRunScenarioFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "probe.json")
	def := `{
		"name": "cli-probe",
		"iterations": 2,
		"phases": [{"instructions": 1e9, "miss_per_instr": 0.02, "ipc": 1.5, "jitter_frac": 0.05}]
	}`
	if err := os.WriteFile(file, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarioFile = file
	defer func() { scenarioFile = "" }()
	o := tinyOptions()
	if err := run("run", o, "text"); err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	// -scenario is run-only and exclusive with -bench.
	if err := run("table1", o, "text"); err == nil {
		t.Error("-scenario with table1 must error")
	}
	benchName = "UTS"
	defer func() { benchName = "" }()
	if err := run("run", o, "text"); err == nil {
		t.Error("-bench with -scenario must error")
	}
}

// TestRunRegisteredScenarioByName: -bench accepts registry names beyond
// Table 1, so synthetic scenarios run through the same subcommand.
func TestRunRegisteredScenarioByName(t *testing.T) {
	benchName = "compute-bound"
	defer func() { benchName = "" }()
	o := tinyOptions()
	o.Scale = 0.005
	rep, err := build("run", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0]["benchmark"] != "compute-bound" {
		t.Errorf("rows = %+v", rep.Rows)
	}
}

// TestRunExperimentReport drives the single-benchmark experiment behind
// POST /v1/runs through the same build path the CLI uses.
func TestRunExperimentReport(t *testing.T) {
	benchName = "Heat-irt"
	defer func() { benchName = "" }()
	o := tinyOptions()
	o.Reps = 2
	rep, err := build("run", o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "run" || rep.Governor != "default" {
		t.Errorf("experiment=%q governor=%q", rep.Experiment, rep.Governor)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want one per rep", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if row["benchmark"] != "Heat-irt" || row["rep"] != i {
			t.Errorf("row %d = %v", i, row)
		}
		if s, ok := row["seconds"].(float64); !ok || s <= 0 {
			t.Errorf("row %d seconds = %v", i, row["seconds"])
		}
	}
	raw, err := json.Marshal(rep)
	if err != nil || !json.Valid(raw) {
		t.Errorf("marshal: %v", err)
	}
}

// TestRunTimelineCSV: a -timeline-out path ending in .csv writes the
// flight recorder's flat CSV export, and two runs of one spec write
// byte-identical files.
func TestRunTimelineCSV(t *testing.T) {
	benchName = "Heat-irt"
	defer func() { benchName, timelineOut = "", "" }()
	o := tinyOptions()
	o.Governor = "cuttlefish"
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		timelineOut = filepath.Join(dir, fmt.Sprintf("tl%d.csv", i))
		if err := run("run", o, "json"); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(timelineOut)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	lines := strings.Split(string(files[0]), "\n")
	if !strings.HasPrefix(lines[0], "record,lane,t,") {
		t.Fatalf("header = %q, want the record,lane,t,… CSV header", lines[0])
	}
	if len(lines) < 3 || !strings.HasPrefix(lines[1], "sample,") {
		t.Errorf("no sample rows after the header: %q", lines[:min(len(lines), 3)])
	}
	if string(files[0]) != string(files[1]) {
		t.Error("two runs of one spec wrote different timeline CSVs")
	}
}
