package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// maxSnapshotsPerRun caps how many region boundaries one run snapshots.
// Snapshots cost encoding time and cache budget; past a few dozen per run
// the marginal prefix they could save is a sliver of the program.
const maxSnapshotsPerRun = 32

// memoContainerMagic versions the snapshot container layout (the machine
// snapshot inside carries its own magic and checksum).
const memoContainerMagic = "cfmemo1\n"

// prefixKeys derives the snapshot key chain for one run: keys[k] commits
// to everything the simulation's future depends on after k completed
// regions. The base digest covers the machine configuration, the
// governor name and tuning, the seed and the simulation deadline; each
// link then absorbs one region's exact values (IEEE-754 bit patterns, so
// "almost equal" programs never collide). Two runs agree on keys[k] iff
// they are bit-identical through their first k regions.
func prefixKeys(cfg machine.Config, govName string, t governor.Tuning, seed int64, maxSim float64, regions []sched.Region) ([]string, error) {
	keyCfg := cfg
	// Profile is pure wall-clock instrumentation with no effect on
	// simulated state: snapshots are shareable across profiled and
	// unprofiled runs, so it must not fork the key chain.
	keyCfg.Profile = false
	cfgJSON, err := json.Marshal(keyCfg)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	var b [8]byte
	f64 := func(v float64) {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	h.Write([]byte("cuttlefish-memo-base1\n"))
	h.Write(cfgJSON)
	h.Write([]byte{0})
	h.Write([]byte(govName))
	h.Write([]byte{0})
	f64(t.TinvSec)
	f64(t.WarmupSec)
	h.Write([]byte{byte(t.CF), byte(t.UF), t.DDCMLevel})
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	f64(maxSim)
	prev := h.Sum(nil)

	keys := make([]string, len(regions)+1)
	keys[0] = hex.EncodeToString(prev)
	for i, r := range regions {
		hh := sha256.New()
		hh.Write(prev)
		var rb [7 * 8]byte
		binary.BigEndian.PutUint64(rb[0:], math.Float64bits(r.Seg.Instructions))
		binary.BigEndian.PutUint64(rb[8:], math.Float64bits(r.Seg.MissPerInstr))
		binary.BigEndian.PutUint64(rb[16:], math.Float64bits(r.Seg.IPC))
		binary.BigEndian.PutUint64(rb[24:], math.Float64bits(r.Seg.RemoteFrac))
		binary.BigEndian.PutUint64(rb[32:], math.Float64bits(r.Seg.Exposure))
		binary.BigEndian.PutUint64(rb[40:], uint64(r.Chunks))
		binary.BigEndian.PutUint64(rb[48:], math.Float64bits(r.JitterFrac))
		hh.Write(rb[:])
		prev = hh.Sum(nil)
		keys[i+1] = hex.EncodeToString(prev)
	}
	return keys, nil
}

// snapshotPoints picks which region boundaries a run snapshots: every
// phase transition (where a diverging re-run most plausibly splits from
// this one), the program end (so a byte-identical re-run skips simulation
// entirely and an iterations-extended one resumes at the old end), and —
// when the budget allows — an even stride through single-phase stretches.
// Programs whose phase transitions alone exceed the budget keep an evenly
// thinned subset.
func snapshotPoints(phases []int) map[int]bool {
	total := len(phases)
	pts := map[int]bool{total: true}
	var cand []int
	for k := 1; k < total; k++ {
		if phases[k] != phases[k-1] {
			cand = append(cand, k)
		}
	}
	if len(cand) <= maxSnapshotsPerRun-1 {
		for _, k := range cand {
			pts[k] = true
		}
		if need := maxSnapshotsPerRun - len(pts); need > 0 && total > 1 {
			stride := (total + need - 1) / need
			if stride < 1 {
				stride = 1
			}
			for k := stride; k < total && len(pts) < maxSnapshotsPerRun; k += stride {
				pts[k] = true
			}
		}
	} else {
		step := (len(cand) + maxSnapshotsPerRun - 2) / (maxSnapshotsPerRun - 1)
		for i := 0; i < len(cand); i += step {
			pts[cand[i]] = true
		}
	}
	return pts
}

// encodeContainer packs one resumable boundary: the machine snapshot (its
// own checksummed encoding), the governor's opaque state blob, and the
// work-sharing checkpoint.
func encodeContainer(machineSnap, govBlob []byte, cp sched.WSCheckpoint) []byte {
	b := make([]byte, 0, len(memoContainerMagic)+4+len(machineSnap)+4+len(govBlob)+24)
	b = append(b, memoContainerMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(machineSnap)))
	b = append(b, machineSnap...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(govBlob)))
	b = append(b, govBlob...)
	b = binary.BigEndian.AppendUint64(b, uint64(cp.RegionsDone))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(cp.OpenAt))
	b = binary.BigEndian.AppendUint64(b, uint64(cp.Chunks))
	return b
}

// decodeContainer unpacks encodeContainer's layout. Any defect is an
// error, which the memo path treats as a miss.
func decodeContainer(raw []byte) (machineSnap, govBlob []byte, cp sched.WSCheckpoint, err error) {
	bad := func(msg string) ([]byte, []byte, sched.WSCheckpoint, error) {
		return nil, nil, sched.WSCheckpoint{}, fmt.Errorf("experiments: snapshot container %s", msg)
	}
	if len(raw) < len(memoContainerMagic) || string(raw[:len(memoContainerMagic)]) != memoContainerMagic {
		return bad("has a bad magic")
	}
	raw = raw[len(memoContainerMagic):]
	take := func(n int) []byte {
		if len(raw) < n {
			return nil
		}
		p := raw[:n]
		raw = raw[n:]
		return p
	}
	lenField := take(4)
	if lenField == nil {
		return bad("is truncated")
	}
	machineSnap = take(int(binary.BigEndian.Uint32(lenField)))
	if machineSnap == nil {
		return bad("is truncated")
	}
	lenField = take(4)
	if lenField == nil {
		return bad("is truncated")
	}
	govBlob = take(int(binary.BigEndian.Uint32(lenField)))
	if govBlob == nil {
		return bad("is truncated")
	}
	tail := take(24)
	if tail == nil {
		return bad("is truncated")
	}
	if len(raw) != 0 {
		return bad("has trailing bytes")
	}
	cp.RegionsDone = int(binary.BigEndian.Uint64(tail[0:]))
	cp.OpenAt = math.Float64frombits(binary.BigEndian.Uint64(tail[8:]))
	cp.Chunks = int(binary.BigEndian.Uint64(tail[16:]))
	if cp.RegionsDone < 0 || cp.Chunks < 0 {
		return bad("has negative counters")
	}
	return machineSnap, govBlob, cp, nil
}

// memoRun is RunEntry's prefix-resume path: look up the longest memoized
// prefix of this run in the snapshot tier, restore it into a freshly
// booted machine, and simulate only the suffix — storing new snapshots at
// phase boundaries on the way. handled is false when the entry has no
// deterministic region schedule (task-DAG decompositions, whose stealing
// schedule depends on engine worker count), sending the caller to the
// plain path. Any defect in a cached snapshot — truncation, checksum
// failure, configuration mismatch — falls back to a fresh full run, whose
// results are byte-identical to never having had a cache.
func memoRun(e scenario.Entry, g governor.Governor, opt Options, seed int64) (res RunResult, handled bool, err error) {
	cfg := opt.machineConfig()
	regions, phases, err := e.Def.CompiledRegions(scenario.Params{
		Cores: cfg.Cores, Scale: opt.Scale, Seed: seed, Model: string(opt.Model),
	})
	if err != nil {
		return RunResult{}, false, nil
	}
	maxSim := e.NominalSeconds*opt.Scale*6 + opt.WarmupSec + 30
	keys, err := prefixKeys(cfg, g.Name(), opt.tuning(), seed, maxSim, regions)
	if err != nil {
		return RunResult{}, false, nil
	}
	total := len(regions)
	gen := func(s int) (sched.Region, bool) {
		if s >= total {
			return sched.Region{}, false
		}
		return regions[s], true
	}
	points := snapshotPoints(phases)

	// Longest memoized prefix: probe from the whole program down. The
	// common warm cases (identical re-run, extended program) hit on the
	// first few probes; a cold run walks the chain once against an
	// in-memory map.
	probe := opt.Span.Child("memo_probe")
	resumeK := 0
	var container []byte
	for k := total; k >= 1; k-- {
		if body, ok := opt.Memo.Get(keys[k]); ok {
			resumeK, container = k, body
			break
		}
	}
	probe.Set("resume_k", resumeK)
	probe.Set("total_regions", total)
	probe.End()

	// execute runs the program through the driver, restoring the
	// container's boundary state first when there is one, and snapshots
	// the selected later boundaries. resumeNow is the restored simulation
	// time (0 for a from-boot run).
	execute := func(fromK int, container []byte) (res RunResult, resumeNow float64, stored int, err error) {
		var ws *sched.WorkSharing
		res, err = simulate(opt, runPlan{
			name:   e.Name,
			gov:    g,
			maxSim: maxSim,
			prepare: func(r *run) (workload.Source, error) {
				if container == nil {
					ws = sched.NewWorkSharing(cfg.Cores, gen, seed)
					return ws, nil
				}
				restore := opt.Span.Child("memo_restore")
				msnap, govBlob, cp, err := decodeContainer(container)
				if err != nil {
					return nil, err
				}
				if cp.RegionsDone != fromK {
					return nil, fmt.Errorf("experiments: snapshot records %d regions, key position says %d", cp.RegionsDone, fromK)
				}
				snap, err := machine.DecodeSnapshot(msnap)
				if err != nil {
					return nil, err
				}
				if err := r.m.Restore(snap); err != nil {
					return nil, err
				}
				if err := r.att.StateRestore(govBlob); err != nil {
					return nil, err
				}
				ws = sched.NewWorkSharingAt(cfg.Cores, gen, seed, cp)
				restore.Set("from_k", fromK)
				restore.End()
				// The prefix-restore marker: a resumed timeline legitimately
				// starts here rather than at boot, so the marker is what lets a
				// reader line it up against a fresh run's recording.
				resumeNow = r.m.Now()
				opt.Timeline.AddEvent(timeline.Event{T: resumeNow, Kind: timeline.KindMemoRestore, From: fromK})
				return ws, nil
			},
			boundary: func(r *run, n int) bool {
				if !points[n] {
					return true
				}
				cp, ok := ws.Checkpoint()
				if !ok || cp.RegionsDone != n {
					return true
				}
				govBlob, err := r.att.StateSnapshot()
				if err != nil {
					return false // e.g. a latched daemon error; stop snapshotting
				}
				opt.Memo.Put(keys[n], encodeContainer(r.m.Snapshot().Encode(), govBlob, cp))
				stored++
				r.sp.Set("snapshots_stored", stored)
				return true
			},
		})
		return res, resumeNow, stored, err
	}

	resumed := false
	var resumeNow float64
	var stored int
	if resumeK > 0 {
		if r, now, s, err := execute(resumeK, container); err == nil {
			res, resumeNow, stored, resumed = r, now, s, true
		}
		// A failed restore discards the tainted machine; fall through to a
		// clean from-boot run.
	}
	if !resumed {
		res, _, stored, err = execute(0, nil)
		if err != nil {
			return RunResult{}, true, err
		}
	}
	saved := int64(math.Round(resumeNow / cfg.QuantumSec))
	totalQ := int64(math.Round(res.Seconds / cfg.QuantumSec))
	if resumed {
		opt.Memo.RecordResume(saved)
	}
	if opt.MemoStats != nil {
		opt.MemoStats.Record(resumed, saved, totalQ, stored)
	}
	return res, true, nil
}
