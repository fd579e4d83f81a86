package experiments

import (
	"context"

	"repro/internal/stream"
	"repro/internal/timegrid"
)

// RunStreaming executes the canonical full pipeline — the same two
// passes as RunStandard — on the sharded streaming engine: day
// production (simulation and KPI generation) runs ahead on a worker
// pool, the per-user analysis work is partitioned across shards, and
// shard results are merged deterministically. The returned Results are
// bit-identical to RunStandard at the same seed for every worker and
// shard count, including workers == 1.
//
// ctx cancels the run: production drains, pooled buffers are recycled
// and ctx.Err() is returned (RELIABILITY.md). A clean run of the
// default engine never errors; with fault injection armed
// (stream.Config.Fault) or a cancelled ctx, the error carries the
// failing stage (stream.WorkerPanic for panics, fault.Error for
// injected failures).
func RunStreaming(ctx context.Context, cfg Config, workers int) (*Results, error) {
	return RunStreamingConfig(ctx, cfg, stream.Config{Workers: workers})
}

// RunStreamingConfig is RunStreaming with full control over the engine
// sizing (shard count, backpressure window).
func RunStreamingConfig(ctx context.Context, cfg Config, scfg stream.Config) (*Results, error) {
	return RunStreamingOn(ctx, NewDataset(cfg), scfg)
}

// RunStreamingOn is RunStreamingConfig over an already-instantiated
// stack.
func RunStreamingOn(ctx context.Context, d *Dataset, scfg stream.Config) (*Results, error) {
	scfg = scfg.WithDefaults()

	// Pass 1: February only, for home detection, sharded by user.
	homes := stream.NewHomes(d.Topology, scfg.Shards)
	eng := stream.NewEngine(scfg)
	eng.AddTraceSharder(homes)
	febSrc := stream.NewSimSource(ctx, d.Sim, nil, 0, timegrid.FebruaryDays, scfg)
	if err := eng.Run(ctx, febSrc); err != nil {
		return nil, err
	}
	return runStreamingStudy(ctx, d, scfg, homes.Detect(), nil)
}

// runStreamingStudy is the study-window pass over prebuilt February
// homes. The sweep's unshared body calls it directly with the World's
// shared homes — February traces are scenario-invariant, so
// re-detecting per scenario would only repeat identical work.
//
// A non-nil sweep worker supplies reusable state: the sharded
// mobility/matrix stages are reset instead of re-allocated (keeping
// their per-shard mergers and day buffers warm) and day production
// recycles through the worker's shared BufferPool, so consecutive
// scenario runs on one worker stay at the zero-alloc steady state. All
// reused state is scratch — nothing in it influences the computed
// aggregates — so results are bit-identical to the unpooled path. A
// failed run leaves the worker's state partially consumed; the sweep
// discards the worker after any error.
func runStreamingStudy(ctx context.Context, d *Dataset, scfg stream.Config, homes homesMap, ws *sweepWorker) (*Results, error) {
	scfg = scfg.WithDefaults()
	r := newResults(d, homes)

	// Pass 2: the study window, with sharded mobility/matrix stages and
	// the exact KPI analyzer in the merge stage.
	study := stream.NewEngine(scfg)
	study.AddTraceSharder(ws.mobility(r.Mobility, scfg.Shards))
	study.AddTraceSharder(ws.matrix(r.Matrix, scfg.Shards))
	if r.KPI != nil {
		study.AddKPIConsumer(r.KPI)
	}
	studySrc := stream.NewSimSourcePooled(ctx, d.Sim, d.Engine,
		timegrid.SimDay(timegrid.StudyDayOffset), timegrid.SimDays, scfg, ws.bufferPool())
	if err := study.Run(ctx, studySrc); err != nil {
		return nil, err
	}
	return r, nil
}
