package experiments

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/scenario"
)

//go:embed testdata/reports.sha256
var reportDigests string

// goldenOptions is the configuration testdata/reports.sha256 was
// generated under: every harness at Scale 0.02, one repetition, the
// default seed, and "run" on Heat-irt.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.02
	o.Reps = 1
	return o
}

const goldenBench = "Heat-irt"

// goldenSweep names the extra golden line for Sweep's grid points: at
// Scale 0.02 the oracle stops before its sweep (the daemon resolves no
// slab in so short a run), so the fixed-frequency path is pinned directly.
const goldenSweep = "sweep"

// goldenTaskDAG names the golden line for the scenario DSL's task-dag
// decomposition: a "run" of goldenDAGDef, whose odd chunk counts give
// uneven binary splits and whose jitter reaches every DAG leaf.
const goldenTaskDAG = "run-task-dag"

func goldenDAGDef() *scenario.Definition {
	exposure := 0.5
	return &scenario.Definition{
		Name:          "golden-task-dag",
		Decomposition: scenario.TaskDAG,
		Iterations:    3,
		Phases: []scenario.PhaseDef{
			{Name: "sweep", Instructions: 4e11, MissPerInstr: 0.06, IPC: 2, RemoteFrac: 0.35,
				Exposure: &exposure, ChunksPerCore: 7, JitterFrac: 0.1, MissJitter: 0.004},
			{Name: "reduce", Instructions: 5e10, MissPerInstr: 0.01, IPC: 1.2, ChunksPerCore: 3, Repeat: 2},
		},
	}
}

// goldenBytes returns the bytes one golden line digests under opt: the
// canonical report of an experiment, the JSON of a small UTS sweep, the
// run of an inline task-dag definition, or —
// for a harness that fails at the golden configuration — its error text.
func goldenBytes(name string, opt Options) []byte {
	var b []byte
	var err error
	if name == goldenSweep {
		var pts []SweepPoint
		if pts, err = Sweep("UTS", opt, 4, 6); err == nil {
			b, err = json.Marshal(pts)
		}
	} else if name == goldenTaskDAG {
		opt.ScenarioDef = goldenDAGDef()
		var rep *report.RunReport
		if rep, err = BuildReport("run", "", opt); err == nil {
			b, err = rep.Encode()
		}
	} else if rep, rerr := BuildReport(name, goldenBench, opt); rerr != nil {
		err = rerr
	} else {
		b, err = rep.Encode()
	}
	if err != nil {
		return []byte("error: " + err.Error())
	}
	return b
}

// goldenNames are the lines of testdata/reports.sha256, in file order.
func goldenNames() []string {
	return append(Names[:len(Names):len(Names)], goldenSweep, goldenTaskDAG)
}

// goldenDigests parses testdata/reports.sha256's "<sha256>  <name>" lines.
func goldenDigests() map[string]string {
	want := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(reportDigests))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			want[f[1]] = f[0]
		}
	}
	return want
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReportDigests pins the canonical bytes of every experiment's report.
// A refactor of the run path must leave all of them unchanged; after an
// intended model change the computed lines it prints are the new
// testdata/reports.sha256.
func TestReportDigests(t *testing.T) {
	want := goldenDigests()
	var got strings.Builder
	ok := true
	for _, name := range goldenNames() {
		d := digest(goldenBytes(name, goldenOptions()))
		if d != want[name] {
			ok = false
			t.Errorf("%s: report digest %s, want %s", name, d, want[name])
		}
		fmt.Fprintf(&got, "%s  %s\n", d, name)
	}
	if !ok {
		t.Logf("computed digests:\n%s", got.String())
	}
}
