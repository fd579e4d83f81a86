package experiments

import (
	"context"
	"testing"

	"repro/internal/stream"
)

// The study driver and the sweep runner return errors only under
// cancellation or fault injection; the functional tests run clean pipelines, so they
// funnel through these must-helpers and keep their assertions on the
// results.

func mustRunOn(t testing.TB, d *Dataset, scfg stream.Config) *Results {
	t.Helper()
	r, err := runOn(context.Background(), d, scfg)
	if err != nil {
		t.Fatalf("runOn: %v", err)
	}
	return r
}

func mustSweep(t testing.TB, w *World, cfg Config, scfg stream.Config, scens []SweepScenario, opt SweepOptions) []SweepRun {
	t.Helper()
	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, scfg, scens, opt)
	if err != nil {
		t.Fatalf("RunSweepParallelOpts(%+v): %v", opt, err)
	}
	return runs
}
