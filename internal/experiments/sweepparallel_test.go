package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stream"
)

// sweepScenarios loads a named scenario set for parity tests.
func sweepScenarios(t *testing.T, names ...string) []SweepScenario {
	t.Helper()
	out := make([]SweepScenario, 0, len(names))
	for _, name := range names {
		out = append(out, *loadScenario(t, name))
	}
	return out
}

// standaloneRuns is the sweep parity reference: every scenario run on
// its own instantiated stack by the serial oracle (serialStandard), with
// its own February pass and no sweep or driver machinery (no scheduler,
// engine pool, checkpoint, rider or stream engine).
func standaloneRuns(w *World, cfg Config, scens []SweepScenario) []SweepRun {
	runs := make([]SweepRun, len(scens))
	for i, sc := range scens {
		c := cfg
		c.Scenario = sc.Scenario
		r := serialStandard(w.Instantiate(c))
		runs[i] = SweepRun{Name: sc.Name, Results: r, Headlines: Headlines(r)}
	}
	return runs
}

// assertSweepRunsEqual compares two sweeps bit for bit: run order,
// headline statistics, and every externally observable aggregate of
// every run.
func assertSweepRunsEqual(t *testing.T, want, got []SweepRun) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("run counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("run %d out of sequence: want %s, got %s", i, want[i].Name, got[i].Name)
		}
		if !reflect.DeepEqual(want[i].Headlines, got[i].Headlines) {
			t.Errorf("run %s: headlines differ:\nwant %+v\n got %+v", want[i].Name, want[i].Headlines, got[i].Headlines)
		}
		assertResultsEqual(t, want[i].Results, got[i].Results)
	}
}

// sweepModes is the parity grid of the sweep scheduler: every worker
// count under both fork plans (every scenario from day 0, and
// copy-on-divergence).
func sweepModes(parallel ...int) []SweepOptions {
	var modes []SweepOptions
	for _, share := range []bool{false, true} {
		for _, p := range parallel {
			modes = append(modes, SweepOptions{Parallel: p, SharePrefix: share})
		}
	}
	return modes
}

// TestParallelSweepMatchesSerial asserts the scheduler invariant: at
// worker counts 1, 2, 4 and 8, under both the unshared (day-0) and the
// copy-on-divergence (shared) plan, the sweep is bit-identical to a
// standalone serial-oracle run per scenario, re-sequenced to the input
// order, while building zero additional Worlds (counter-verified). Run
// under -race this also exercises the cross-worker synchronization (the
// shared immutable World, the shared homes map, the engine pool, the
// checkpoint store).
func TestParallelSweepMatchesSerial(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t,
		scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown,
		scenario.SecondWave, scenario.VoiceSurge)
	w := NewWorld(cfg)
	scfg := stream.Config{Workers: 1}
	ref := standaloneRuns(w, cfg, scens)

	before := WorldBuildCount()
	for _, opt := range sweepModes(1, 2, 4, 8) {
		t.Run(fmt.Sprintf("parallel=%d/share=%t", opt.Parallel, opt.SharePrefix), func(t *testing.T) {
			assertSweepRunsEqual(t, ref, mustSweep(t, w, cfg, scfg, scens, opt))
		})
	}
	if extra := WorldBuildCount() - before; extra != 0 {
		t.Fatalf("parallel sweeps built %d extra worlds, want 0", extra)
	}
}

// TestParallelSweepMatchesSerialKPI covers the engine-reuse path: with
// KPI enabled and more scenarios than workers, runs draw rebound traffic
// engines from the sweep's pool (Engine.Rebind), and the KPI series must
// still be bit-identical to standalone serial-oracle runs, under both
// plans.
func TestParallelSweepMatchesSerialKPI(t *testing.T) {
	cfg := streamingTestConfig() // KPI enabled, sparser topology
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.VoiceSurge)
	w := NewWorld(cfg)
	scfg := stream.Config{Workers: 1}
	ref := standaloneRuns(w, cfg, scens)
	for i := range ref {
		if ref[i].Results.KPI == nil {
			t.Fatalf("run %s has no KPI analyzer", ref[i].Name)
		}
	}
	for _, opt := range sweepModes(2) {
		got := mustSweep(t, w, cfg, scfg, scens, opt)
		assertSweepRunsEqual(t, ref, got)
		// Documented contract: sweep runs carry no live engine — it is
		// pooled scratch that would otherwise alias every run to the
		// scenario it was rebound to last.
		for _, run := range got {
			if run.Results.Dataset.Engine != nil {
				t.Fatalf("%+v: run %s exports a pooled engine", opt, run.Name)
			}
		}
	}
}

// TestParallelSweepDegradesToSerial pins the clamp: a single scenario
// with Parallel 8 runs on one worker.
func TestParallelSweepDegradesToSerial(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid)
	w := NewWorld(cfg)
	runs := mustSweep(t, w, cfg, stream.Config{Workers: 1}, scens, SweepOptions{Parallel: 8})
	if len(runs) != 1 || runs[0].Name != scenario.DefaultCovid {
		t.Fatalf("unexpected runs: %+v", runs)
	}
	if len(runs[0].Headlines) == 0 {
		t.Fatal("degraded run has no headlines")
	}
}
