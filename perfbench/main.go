// Command perfbench is the repository benchmark. It drives one workload
// through the same public APIs the repository's commands use
// (experiments, stream, feeds), repeats the operation for a fixed time,
// verifies every result against a digest, and prints the metrics named
// in BENCHMARK.json as the last line of standard output.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload monitor --seed 7 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced operations and reports the per-layer
// metrics of the traced ones, writing their spans under .bench_build/. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"day_ms_p50", "ms"},
	{"day_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// spanMetrics maps per-layer time metrics to the spans they sum: the
// self time of main-lane spans, the busy time of worker-lane spans.
var spanMetrics = []struct{ metric, span string }{
	{"experiments.new_world_ms", "experiments.new_world"},
	{"experiments.instantiate_ms", "experiments.instantiate"},
	{"setup.simulate_ms", "setup.simulate"},
	{"feeds.encode_ms", "feeds.encode"},
	{"mobsim.day_into_ms", "mobsim.day_into"},
	{"traffic.day_append_ms", "traffic.day_append"},
	{"core.kpi_ms", "core.kpi"},
	{"core.home_ms", "core.home"},
	{"core.mobility_ms", "core.mobility"},
	{"core.matrix_ms", "core.matrix"},
	{"experiments.figures_ms", "experiments.figures"},
	{"signaling.busy_ms", "signaling.shard"},
	{"stream.build_ms", "stream.build"},
	{"stream.source_wait_ms", "stream.source_wait"},
	{"stream.engine_ms", "stream.day"},
	{"stream.shard_stage_ms", "stream.shard_stage"},
	{"stream.merge_ms", "stream.merge"},
	{"stream.mobility_busy_ms", "stream.mobility_shard"},
	{"stream.kpi_sketch_busy_ms", "stream.kpi_sketch_shard"},
	{"feeds.decode_ms", "feeds.decode"},
	{"experiments.homes_ms", "experiments.homes"},
	{"experiments.sweep_ms", "experiments.sweep"},
	{"bench.verify_ms", "bench.verify"},
}

// countMetrics are recorded by the tracer at layer boundaries.
var countMetrics = []string{
	"mobsim.visits", "traffic.cells", "signaling.events",
	"feeds.bytes", "feeds.skipped_rows",
	"experiments.forks", "experiments.prefix_days_saved",
}

// perLayer are the metrics of a --trace 1 run, in report order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, m := range spanMetrics {
		defs = append(defs, metricDef{m.metric, "ms"})
	}
	for _, c := range countMetrics {
		defs = append(defs, metricDef{c, "count"})
	}
	return append(defs,
		metricDef{"stream.shard_skew", "ratio"},
		metricDef{"experiments.scenario_ms_p50", "ms"},
		metricDef{"experiments.scenario_ms_max", "ms"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.overhead", "ratio"},
	)
}

//go:embed pinned.json
var pinnedJSON []byte

// pinned holds the expected digest of each workload at its default
// scale and the pinned seed.
type pinned struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadPinned() (pinned, error) {
	var p pinned
	err := json.Unmarshal(pinnedJSON, &p)
	return p, err
}

// runConfig is one benchmark run.
type runConfig struct {
	wl     workload
	sc     scale
	seed   uint64
	budget time.Duration
	trace  bool
	out    string
	// minOps is the least number of operations a run makes, however
	// long they take.
	minOps int
}

// opResult is one operation.
type opResult struct {
	traced     bool
	setup, run time.Duration
	// cpu is the process CPU time (user+system) of the run phase.
	cpu    time.Duration
	out    outcome
	err    error
	layers map[string]float64
	spans  []span
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// opDetail is the per-operation record printed before the result.
type opDetail struct {
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	CPUS   float64 `json:"cpu_s"`
	Digest string  `json:"digest,omitempty"`
	Note   string  `json:"note,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// report is everything a run prints.
type report struct {
	result     result
	ops        []opResult
	daySamples int
	expected   string
}

// gostats are the runtime counters whose deltas the traced run reports.
type gostats struct{ allocBytes, gcCycles float64 }

func readGo() gostats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gostats{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// runOp sets up and runs one operation; traced operations record spans.
func runOp(ctx context.Context, rc runConfig, idx int, traced bool, epoch time.Time) (r opResult) {
	r.traced = traced
	b := rc.wl.make(rc.sc, rc.seed, rc.out)
	defer b.close()

	var tr *tracer
	if traced {
		tr = newTracer(idx, epoch)
	}
	// Start each phase from a collected heap, as a fresh process would.
	runtime.GC()
	t0 := time.Now()
	if tr != nil {
		tr.root = tr.open("setup", 0, laneMain, -1)
	}
	err := b.setup(tr)
	if tr != nil {
		tr.close(tr.root)
	}
	r.setup = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("setup: %w", err)
		return r
	}

	runtime.GC()
	var g0 gostats
	if tr != nil {
		g0 = readGo()
		tr.root = tr.open("run", 0, laneMain, -1)
	}
	c1 := cpuTime()
	t1 := time.Now()
	r.out, r.err = b.run(ctx, tr)
	r.run = time.Since(t1)
	r.cpu = cpuTime() - c1
	if tr != nil {
		tr.close(tr.root)
		g1 := readGo()
		r.layers = layerMetrics(tr)
		r.layers["go.alloc_mb"] = (g1.allocBytes - g0.allocBytes) / (1 << 20)
		r.layers["go.gc_cycles"] = g1.gcCycles - g0.gcCycles
		r.spans = tr.spans
	}
	return r
}

// Extra set-ups made when a run's operations are too few for a steady
// setup_s median.
const (
	minSetups      = 9
	extraSetupTime = 2 * time.Second
)

// setupOnly times one untraced set-up.
func setupOnly(rc runConfig) (time.Duration, error) {
	b := rc.wl.make(rc.sc, rc.seed, rc.out)
	defer b.close()
	runtime.GC()
	t0 := time.Now()
	err := b.setup(nil)
	return time.Since(t0), err
}

// layerMetrics derives one traced operation's per-layer metrics.
func layerMetrics(tr *tracer) map[string]float64 {
	ms, coverage := layerTimes(tr.spans, tr.root)
	out := map[string]float64{"trace.coverage": coverage}
	for _, m := range spanMetrics {
		out[m.metric] = ms[m.span]
	}
	for _, c := range countMetrics {
		out[c] = tr.counts[c]
	}
	out["stream.shard_skew"] = shardSkew(tr.spans, "stream.shard_stage")
	var scen []float64
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == "experiments.scenario" {
			scen = append(scen, float64(s.dur())/1e6)
		}
	}
	out["experiments.scenario_ms_p50"] = quantile(scen, 0.5)
	out["experiments.scenario_ms_max"] = quantile(scen, 1)
	return out
}

// measure runs operations until the budget is spent and folds them into
// the run's metrics.
func measure(ctx context.Context, rc runConfig) (*report, error) {
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	if p, err := loadPinned(); err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	} else if rc.seed == p.Seed && rc.sc == rc.wl.scale {
		rep.expected = p.Digests[rc.wl.name]
	}

	epoch := time.Now()
	for i := 0; len(rep.ops) < rc.minOps || time.Since(epoch) < rc.budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Trace runs alternate untraced and traced operations, starting
		// untraced, so trace.overhead compares neighbours.
		op := runOp(ctx, rc, i, rc.trace && i%2 == 1, epoch)
		if op.err == nil {
			if rep.expected == "" {
				rep.expected = op.out.digest
			} else if op.out.digest != rep.expected {
				op.err = fmt.Errorf("digest %s, want %s", op.out.digest, rep.expected)
			}
		}
		rep.ops = append(rep.ops, op)
	}

	res := &rep.result
	res.Attempted = len(rep.ops)
	var setups, runs, tracedRuns, days []float64

	// setup_s is a median over at least minSetups set-ups: when the
	// operations were fewer, set up again without running, for at most
	// extraSetupTime.
	for t := time.Now(); !rc.trace && len(rep.ops)+len(setups) < minSetups && time.Since(t) < extraSetupTime; {
		d, err := setupOnly(rc)
		if err != nil {
			res.Attempted++
			res.Failed++
			break
		}
		setups = append(setups, d.Seconds())
	}
	layers := map[string][]float64{}
	for _, op := range rep.ops {
		if op.err != nil {
			res.Failed++
			continue
		}
		if op.traced {
			tracedRuns = append(tracedRuns, op.run.Seconds())
			for k, v := range op.layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		setups = append(setups, op.setup.Seconds())
		runs = append(runs, op.run.Seconds())
		days = append(days, dayTimes(op)...)
	}
	res.Correct = res.Failed == 0
	rep.daySamples = len(days)
	res.Metrics = map[string]metricOut{}
	if rc.trace {
		for _, d := range perLayer() {
			res.Metrics[d.name] = metricOut{quantile(layers[d.name], 0.5), d.unit}
		}
		if r := quantile(runs, 0.5); r > 0 {
			res.Metrics["trace.overhead"] = metricOut{quantile(tracedRuns, 0.5) / r, "ratio"}
		}
	} else {
		vals := map[string]float64{
			"setup_s":     quantile(setups, 0.5),
			"run_s":       quantile(runs, 0.5),
			"day_ms_p50":  quantile(days, 0.5),
			"day_ms_p90":  quantile(days, 0.9),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricOut{vals[d.name], d.unit}
		}
	}
	return rep, nil
}

// dayTimes returns an operation's day times in milliseconds: the
// intervals between consecutive merged days on the stream workloads;
// the run time divided by the simulated days on the batch ones, whose
// days are not observable from outside the batch call.
func dayTimes(op opResult) []float64 {
	st := op.out.stamps
	if len(st) == 0 {
		if op.out.days == 0 {
			return nil
		}
		return []float64{float64(op.run) / 1e6 / float64(op.out.days)}
	}
	out := make([]float64, 0, len(st)-1)
	for i := 1; i < len(st); i++ {
		out = append(out, float64(st[i].Sub(st[i-1]))/1e6)
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		var kb float64
		for _, line := range strings.Split(string(b), "\n") {
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// writeTrace writes the traced operations' spans and layer metrics as
// JSON lines: the runner record, one line per traced operation, then
// one line per span.
func writeTrace(path string, rn runner, rep *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"runner": rn})
	for i, op := range rep.ops {
		if op.traced && err == nil {
			err = enc.Encode(map[string]any{"op": i, "run_s": op.run.Seconds(), "layers": op.layers})
		}
	}
	for _, op := range rep.ops {
		for i := range op.spans {
			if err == nil {
				err = enc.Encode(&op.spans[i])
			}
		}
	}
	return errors.Join(err, f.Close())
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figures, monitor, replay-csv or sweep-registry")
		seed    = flag.Uint64("seed", 42, "workload seed")
		seconds = flag.Float64("seconds", 25, "measurement time; every run makes at least three operations")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced operations")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	// Scratch files stay in the checkout, beside the build output.
	rc := runConfig{wl: wl, sc: wl.scale, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: filepath.Join(".bench_build", "perfbench"), minOps: 3}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := measure(ctx, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}

	rn := runnerRecord(rc, ".")
	if rc.trace {
		path := filepath.Join(rc.out, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, rc.seed))
		if err := writeTrace(path, rn, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		}
	}
	var details []opDetail
	for _, op := range rep.ops {
		d := opDetail{Traced: op.traced, SetupS: op.setup.Seconds(), RunS: op.run.Seconds(), CPUS: op.cpu.Seconds(), Digest: op.out.digest, Note: op.out.note}
		if op.err != nil {
			d.Error = op.err.Error()
		}
		details = append(details, d)
	}
	line := func(v any) {
		b, _ := json.Marshal(v) // plain structs and maps of numbers and strings
		fmt.Println(string(b))
	}
	line(map[string]any{"runner": rn})
	line(map[string]any{"workload": wl.name, "scale": rc.sc, "expected_digest": rep.expected,
		"day_samples": rep.daySamples, "ops": details})
	line(rep.result)
}
