package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/stats"
	"repro/internal/stream"
)

// homesMap is the World's shared February home-detection result,
// threaded into every scenario run.
type homesMap = map[popsim.UserID]core.Home

// SweepScenario is one named entry of a scenario sweep. A nil Scenario
// means the calibrated default timeline.
type SweepScenario struct {
	Name     string
	Scenario *pandemic.Scenario
}

// SweepRun is the outcome of one scenario of a sweep. A failed run —
// its stack panicked, a fault was injected, or the sweep was cancelled
// before it ran — has Err set and nil Results/Headlines; the other
// runs of the sweep complete normally (per-run isolation,
// RELIABILITY.md). Filter failed runs out before tabulating
// (SweepTable assumes complete headline sets).
type SweepRun struct {
	Name      string
	Results   *Results
	Headlines []Headline
	Err       error

	// ForkedFrom and PrefixDays record copy-on-divergence provenance
	// (SweepOptions.SharePrefix): when the run was forked from another
	// scenario's checkpoint instead of simulating from day 0, ForkedFrom
	// names that scenario and PrefixDays counts the shared study days it
	// skipped. Zero values mean a standalone day-0 run. Provenance only
	// — the results are bit-identical either way.
	ForkedFrom string
	PrefixDays int
}

// SweepOptions tunes RunSweepParallelOpts.
type SweepOptions struct {
	// Parallel is the number of scenario runs in flight; <= 1 runs them
	// one at a time (with the same per-run isolation and OnRun hook).
	Parallel int
	// OnRun, when non-nil, observes every finished run — including
	// failed ones — as soon as its slot completes, before the sweep
	// returns. Calls are serialized by the runner (no caller locking)
	// but arrive in completion order, not input order; i is the run's
	// index in scens. cmd/mnosweep journals completed runs through this
	// hook so an interrupted sweep can resume.
	OnRun func(i int, run SweepRun)
	// SharePrefix plans the sweep copy-on-divergence: scenarios are
	// grouped by divergence day (pandemic.Scenario.DivergenceFrom), each
	// shared prefix is simulated once, checkpointed at the fork day and
	// forked per scenario. Without it every scenario runs from day 0.
	// Both plans run the same study driver, so results are
	// bit-identical either way; forked runs gain ForkedFrom/PrefixDays
	// provenance.
	SharePrefix bool
}

// sweepMetrics are the sweep runner's handles, resolved once per sweep
// from scfg.Metrics (nil when metrics are off — no clock reads then).
type sweepMetrics struct {
	runs    *obs.Counter   // sweep.runs: scenario runs settled, riders included
	runNs   *obs.Histogram // sweep.run_ns: wall time per scheduled day loop, one shard per worker
	queueNs *obs.Histogram // sweep.queue_wait_ns: how long each scheduled day loop queued behind the workers
	builds  *obs.Gauge     // sweep.world_builds: process-wide World builds (should stay at 1 per sweep)

	// Copy-on-divergence counters (zero without SharePrefix).
	prefixSaved *obs.Counter // sweep.prefix_days_saved: study days skipped by forking checkpoints
	forks       *obs.Counter // sweep.checkpoint_forks: runs started from a forked checkpoint
}

func newSweepMetrics(r *obs.Registry, parallel int) *sweepMetrics {
	if r == nil {
		return nil
	}
	return &sweepMetrics{
		runs:        r.Counter("sweep.runs"),
		runNs:       r.Histogram("sweep.run_ns", parallel),
		queueNs:     r.Histogram("sweep.queue_wait_ns", 1),
		builds:      r.Gauge("sweep.world_builds"),
		prefixSaved: r.Counter("sweep.prefix_days_saved"),
		forks:       r.Counter("sweep.checkpoint_forks"),
	}
}

// RunSweepParallelOpts executes every scenario over the shared world and
// extracts the headline statistics per run. cfg carries the per-run
// knobs (TopN, SkipKPI, …); its Scenario field is ignored — the sweep
// entries decide. The world is built exactly once by the caller and the
// February home-detection pass — scenario-invariant, like everything
// else in the world — runs once (World.Homes) and is shared by every
// run.
//
// Runs share the world's seed, so scenarios are compared on *paired*
// draws: every agent keeps its home, anchors, device and relocation
// candidacy across runs, and only the behavioural response differs.
//
// scfg contributes only its metrics registry and fault injector (which
// arm every run's stream.* stages too): each run executes on the study
// driver with one producer (runPrefixScenario), so a sweep's cores come
// from opt.Parallel.
//
// Scheduling: max(1, min(opt.Parallel, len(scens))) workers pull runs
// from a ready queue over the sweep's fork tree. Without SharePrefix
// every scenario is a root, ready at once, and runs from day 0. With
// SharePrefix a scenario becomes ready when its parent has completed
// and resumes from the parent's checkpoint; trace-equal leaves ride
// inside their host's loop instead of being scheduled. Every run is
// deterministic in (world, scenario, start checkpoint), so the output —
// re-sequenced to the input order — is bit-identical to a standalone
// RunStandardOn per scenario under either plan at any worker count
// (TestParallelSweepMatchesSerial, TestSharedPrefixSweepMatchesUnshared,
// under -race).
//
// Warm traffic engines are recycled, never shared: they come from one
// sweep-wide pool (Engine.Rebind is bit-identical to a fresh engine).
// As a result the returned Results carry no live traffic engine
// (Results.Dataset.Engine is nil); callers that want to replay KPI
// generation for one run should Instantiate a fresh stack for it.
//
// Failures are isolated per run: a scenario that panics or hits an
// injected fault gets its Err set while the others complete; a failed
// parent's children and riders fall back to standalone day-0 runs. The
// returned slice always has one entry per scenario, in input order; the
// error is nil iff every run succeeded, else the joined per-run
// failures. Cancelling ctx marks the not-yet-run scenarios with
// ctx.Err(), and in-flight runs drain their pipelines before returning.
func RunSweepParallelOpts(ctx context.Context, w *World, cfg Config, scfg stream.Config, scens []SweepScenario, opt SweepOptions) ([]SweepRun, error) {
	out := make([]SweepRun, len(scens))
	if len(scens) == 0 {
		return out, nil
	}
	homes := w.Homes()
	plan := rootPlan(len(scens))
	if opt.SharePrefix {
		plan = planPrefix(scens)
	}
	store := newCkStore(&plan)
	pool := &enginePool{}
	parallel := max(1, min(opt.Parallel, len(scens)))
	m := newSweepMetrics(scfg.Metrics, parallel)

	// The ready queue holds every scheduled index at most once (each has
	// one parent), so len(scens) capacity never blocks a producer; the
	// last settled run closes it.
	ready := make(chan int, len(scens))
	for i := range scens {
		if plan.parent[i] < 0 {
			ready <- i
		}
	}
	var (
		mu        sync.Mutex // serializes OnRun and the completion count
		completed int
	)

	// settle records one finished run (host, rider or fallback): its
	// fork provenance, the checkpoints its children await, the metrics
	// and the OnRun hook; then it schedules the run's children.
	settle := func(i int, run SweepRun, prefixDays int, snaps map[int]*Checkpoint) {
		if run.Err == nil {
			if prefixDays > 0 {
				run.ForkedFrom, run.PrefixDays = scens[plan.parent[i]].Name, prefixDays
				if m != nil {
					m.forks.Inc()
					m.prefixSaved.Add(int64(prefixDays))
				}
			}
			store.put(i, snaps)
		}
		out[i] = run
		if m != nil {
			m.runs.Inc()
		}
		for _, c := range plan.children[i] {
			ready <- c
		}
		mu.Lock()
		defer mu.Unlock()
		if opt.OnRun != nil {
			opt.OnRun(i, run)
		}
		if completed++; completed == len(scens) {
			close(ready)
		}
	}

	// runShared runs scheduled index i on the checkpointable loop, from
	// its planned start checkpoint (day 0 for a root) and with its
	// riders inline. A failed host reports no rider outcomes; its riders
	// then fall back to standalone day-0 runs, exactly as the children
	// of a failed checkpoint parent do.
	runShared := func(i int) {
		start := store.take(i)
		prefixDays := 0
		if start != nil {
			prefixDays = int(start.Day)
		}
		run, riderRuns, snaps := runPrefixScenario(ctx, w, cfg, scfg, scens[i], i, homes, start, plan.snapAt[i], plan.riderSpecs(i, scens), pool)
		settle(i, run, prefixDays, snaps)
		if run.Err == nil {
			for _, rr := range riderRuns {
				settle(rr.idx, rr.run, rr.days, nil)
			}
			return
		}
		for _, ri := range plan.riders[i] {
			frun, _, _ := runPrefixScenario(ctx, w, cfg, scfg, scens[ri], ri, homes, nil, nil, nil, pool)
			settle(ri, frun, 0, nil)
		}
	}

	var fanOut time.Time
	if m != nil {
		fanOut = time.Now()
	}
	var wg sync.WaitGroup
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var runSh *obs.HistShard
			if m != nil {
				runSh = m.runNs.Shard(p)
			}
			for i := range ready {
				var t0 time.Time
				if m != nil {
					t0 = time.Now()
					m.queueNs.Observe(int64(t0.Sub(fanOut)))
				}
				runShared(i)
				if m != nil {
					runSh.Observe(int64(time.Since(t0)))
				}
			}
		}(p)
	}
	wg.Wait()
	if m != nil {
		m.builds.Set(WorldBuildCount())
	}
	return out, sweepErr(out)
}

// runGate is the admission check of every sweep run and rider: a
// cancelled ctx or an injected fault.SweepRun fault fails the run before
// it does any work.
func runGate(ctx context.Context, scfg stream.Config, idx int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return scfg.Fault.Fire(fault.SweepRun, int64(idx))
}

// sweepErr joins the failures of a sweep into one error (nil when every
// run completed), naming each failed run.
func sweepErr(runs []SweepRun) error {
	var errs []error
	for i := range runs {
		if runs[i].Err != nil {
			errs = append(errs, fmt.Errorf("sweep run %q: %w", runs[i].Name, runs[i].Err))
		}
	}
	return errors.Join(errs...)
}

// SweepTable tabulates a sweep as headline rows × scenario columns,
// keeping only the headlines present in every run (KPI headlines drop
// out of mobility-only sweeps, exactly as in CompareScenarios). Failed
// runs (Err set, no headlines) must be filtered out by the caller
// first.
func SweepTable(runs []SweepRun) stats.Table {
	t := stats.Table{Title: "scenario sweep"}
	if len(runs) == 0 {
		return t
	}
	for _, run := range runs {
		t.ColNames = append(t.ColNames, run.Name)
	}
	byName := make([]map[string]float64, len(runs))
	for i, run := range runs {
		byName[i] = make(map[string]float64, len(run.Headlines))
		for _, h := range run.Headlines {
			byName[i][h.Name] = h.Value
		}
	}
	for _, h := range runs[0].Headlines {
		row := make([]float64, len(runs))
		ok := true
		for i := range runs {
			v, has := byName[i][h.Name]
			if !has {
				ok = false
				break
			}
			row[i] = v
		}
		if ok {
			t.AddRow(h.Name, row)
		}
	}
	return t
}
