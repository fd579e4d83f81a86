package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/scenario"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// scale sizes a workload: synthetic users, and the day window of the
// stream workloads (ignored by the batch ones, which run the paper's
// full February-plus-study calendar).
type scale struct {
	Users int `json:"users"`
	Days  int `json:"days,omitempty"`
}

// workload is one benchmark input. Each operation builds a fresh
// bench, sets it up (world build, plus the feed for replay-csv) and
// runs it to a verified result.
type workload struct {
	name  string
	scale scale
	make  func(sc scale, seed uint64, dir string) bench
}

type bench interface {
	// setup builds the operation's inputs; tr is nil when untraced.
	setup(tr *tracer) error
	// run drives the workload's public APIs to a result and digests it.
	run(ctx context.Context, tr *tracer) (outcome, error)
	// close removes what setup wrote to disk.
	close()
}

// outcome is one operation's verified result.
type outcome struct {
	digest string
	// days is the number of simulated days the operation delivered.
	days int
	// stamps are the times the serial summary consumer saw each merged
	// day (stream workloads only).
	stamps []time.Time
	note   string
}

var workloads = []workload{
	{"figures", scale{Users: popsim.ScaleSmall}, newFigures},
	{"monitor", scale{Users: popsim.ScaleSmall, Days: 30}, newMonitor},
	{"replay-csv", scale{Users: popsim.ScaleSmall, Days: 30}, newReplay},
	{"sweep-registry", scale{Users: 4000}, newSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nproc is the worker budget of every workload: one process with at
// most one worker per CPU.
func nproc() int { return runtime.NumCPU() }

func config(users int, seed uint64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	cfg.Seed = seed
	return cfg
}

// window returns the stream workloads' day window: days days centred
// on the lockdown, so it holds the pre- and post-lockdown regimes and
// the day of the replayed event feed.
func window(days int) (first, limit timegrid.SimDay) {
	first = timegrid.LockdownStart.ToSimDay() - timegrid.SimDay(days/2)
	return first, first + timegrid.SimDay(days)
}

// timed runs f, inside a main-lane span when traced.
func timed(tr *tracer, name string, f func()) {
	if tr == nil {
		f()
		return
	}
	tr.do(name, f)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// buildStack is the set-up shared by the figure and monitor workloads:
// the world build and the scenario instantiation.
func buildStack(cfg experiments.Config, tr *tracer) *experiments.Dataset {
	var w *experiments.World
	timed(tr, "experiments.new_world", func() { w = experiments.NewWorld(cfg) })
	var d *experiments.Dataset
	timed(tr, "experiments.instantiate", func() { d = w.Instantiate(cfg) })
	return d
}

// --- figures ------------------------------------------------------------

// figuresBench is `figures`: the serial paper pipeline plus every figure
// runner and its shape checks.
type figuresBench struct {
	cfg experiments.Config
	d   *experiments.Dataset
}

func newFigures(sc scale, seed uint64, _ string) bench {
	return &figuresBench{cfg: config(sc.Users, seed)}
}

func (b *figuresBench) setup(tr *tracer) error {
	b.d = buildStack(b.cfg, tr)
	return nil
}

func (b *figuresBench) close() {}

func (b *figuresBench) run(_ context.Context, tr *tracer) (outcome, error) {
	var r *experiments.Results
	if tr == nil {
		r = experiments.RunStandardOn(b.d)
	} else {
		r = runStandardTraced(b.d, tr)
	}
	var figs []*experiments.Figure
	timed(tr, "experiments.figures", func() { figs = experiments.AllFigures(r) })
	var out outcome
	timed(tr, "bench.verify", func() {
		h := sha256.New()
		for _, hl := range experiments.Headlines(r) {
			fmt.Fprintf(h, "headline %s %x\n", hl.Name, math.Float64bits(hl.Value))
		}
		// Verdicts are hashed as a sorted set: fig5 emits its per-county
		// checks in map order, which varies from run to run.
		var verdicts []string
		passed := 0
		for _, f := range figs {
			for _, c := range f.Checks {
				verdicts = append(verdicts, fmt.Sprintf("check %s %s %t %s\n", f.ID, c.Name, c.Pass, c.Got))
				if c.Pass {
					passed++
				}
			}
		}
		sort.Strings(verdicts)
		for _, v := range verdicts {
			io.WriteString(h, v)
		}
		out = outcome{digest: sum(h), days: timegrid.FebruaryDays + timegrid.SimDays - timegrid.StudyDayOffset,
			note: fmt.Sprintf("%d/%d shape checks pass", passed, len(verdicts))}
	})
	return out, nil
}

// runStandardTraced is experiments.RunStandardOn made of the same public
// calls, each inside a span of its layer.
func runStandardTraced(d *experiments.Dataset, tr *tracer) *experiments.Results {
	cfg := d.Config
	r := &experiments.Results{Dataset: d}
	buf := mobsim.NewDayBuffer()
	dayInto := func(day timegrid.SimDay) []mobsim.DayTrace {
		var traces []mobsim.DayTrace
		tr.do("mobsim.day_into", func() { traces = d.Sim.DayInto(buf, day) })
		visits := 0
		for i := range traces {
			visits += len(traces[i].Visits)
		}
		tr.add("mobsim.visits", float64(visits))
		return traces
	}

	var hd *core.HomeDetector
	tr.do("core.home", func() { hd = core.NewHomeDetector(d.Topology) })
	for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
		traces := dayInto(day)
		tr.do("core.home", func() { hd.ConsumeDay(day, traces) })
	}
	tr.do("core.home", func() { r.Homes = hd.Detect() })

	inner := d.Model.InnerLondon()
	tr.do("core.matrix", func() {
		var cohort []popsim.UserID
		for uid, h := range r.Homes {
			if h.County == inner.ID {
				cohort = append(cohort, uid)
			}
		}
		r.Matrix = core.NewMobilityMatrix(d.Pop, inner.ID, cohort, cfg.TopN)
	})
	tr.do("core.mobility", func() { r.Mobility = core.NewMobilityAnalyzer(d.Pop, cfg.TopN) })
	if d.Engine != nil {
		tr.do("core.kpi", func() { r.KPI = core.NewKPIAnalyzer(d.Topology) })
	}

	var cells []traffic.CellDay
	for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.SimDays; day++ {
		traces := dayInto(day)
		tr.do("core.mobility", func() { r.Mobility.ConsumeDay(day, traces) })
		tr.do("core.matrix", func() { r.Matrix.ConsumeDay(day, traces) })
		if d.Engine != nil {
			tr.do("traffic.day_append", func() { cells = d.Engine.DayAppend(cells[:0], day, traces) })
			tr.add("traffic.cells", float64(len(cells)))
			tr.do("core.kpi", func() { r.KPI.ConsumeDay(day, cells) })
		}
	}
	return r
}

// --- stream workloads ---------------------------------------------------

// summary is the serial merge-stage consumer of the stream workloads: it
// renders cmd/mnostream's per-day summary line and stamps the time each
// merged day reached it.
type summary struct {
	mob *stream.RollingMobility
	kpi *stream.KPIMedians
	sig *stream.Signaling
	st  *streamTrace

	lines  []string
	stamps []time.Time

	prevEvents, prevFailures int64
}

// ConsumeDay implements stream.TraceConsumer.
func (p *summary) ConsumeDay(day timegrid.SimDay, _ []mobsim.DayTrace) {
	m := p.mob.Last()
	cells, dlMed, connMed := 0, 0.0, 0.0
	if k := p.kpi.Last(); k.Day == day {
		cells = k.Cells
		dlMed = k.Medians[traffic.DLVolume]
		connMed = k.Medians[traffic.ConnectedUsers]
	}
	events, failures := p.sig.Totals()
	dayEvents, failPct := events-p.prevEvents, 0.0
	if dayEvents > 0 {
		failPct = float64(failures-p.prevFailures) / float64(dayEvents) * 100
	}
	p.prevEvents, p.prevFailures = events, failures
	p.lines = append(p.lines, fmt.Sprintf("%s %3d %6d %7.3f %6.2f %6d %9.2f %8.3f %8d %8.3f",
		timegrid.DateOfSimDay(day).Format("2006-01-02"), int(day), m.Users,
		m.AvgEntropy, m.AvgGyration, cells, dlMed, connMed, dayEvents, failPct))
	p.stamps = append(p.stamps, time.Now())
	if p.st != nil {
		p.st.endMerge()
	}
}

func (p *summary) outcome() outcome {
	h := sha256.New()
	for _, l := range p.lines {
		fmt.Fprintln(h, l)
	}
	return outcome{digest: sum(h), days: len(p.lines), stamps: p.stamps}
}

// pipeline holds the stream stages both stream workloads attach, wired
// as cmd/mnostream wires them, and wrapped for tracing when traced.
type pipeline struct {
	scfg stream.Config
	eng  *stream.Engine
	mob  *stream.RollingMobility
	kpi  *stream.KPIMedians
	sig  *stream.Signaling
	out  *summary
	st   *streamTrace
}

// newPipeline builds the engine with the rolling-mobility, KPI-sketch
// and signaling stages and the summary consumer. background selects the
// inline monitor's signaling (events generated from the traces) over the
// replay's (events folded from the feed).
func newPipeline(d *experiments.Dataset, background bool, tr *tracer) *pipeline {
	p := &pipeline{scfg: stream.Config{Workers: nproc()}.WithDefaults()}
	if tr != nil {
		p.st = &streamTrace{t: tr}
	}
	p.eng = stream.NewEngine(p.scfg)
	p.mob = stream.NewRollingMobility(d.Topology, d.Config.TopN, p.scfg.Shards)
	p.kpi = stream.NewKPIMedians(p.scfg.Shards)
	p.sig = stream.NewSignaling(signaling.NewGenerator(d.Pop, d.Config.Seed), d.Topology, p.scfg.Shards, background)
	p.out = &summary{mob: p.mob, kpi: p.kpi, sig: p.sig, st: p.st}
	if p.st == nil {
		p.eng.AddTraceSharder(p.mob)
		p.eng.AddKPISharder(p.kpi)
	} else {
		p.eng.AddTraceSharder(tracedSharder[mobsim.DayTrace]{p.st, "stream.mobility_shard", p.mob})
		p.eng.AddKPISharder(tracedSharder[traffic.CellDay]{p.st, "stream.kpi_sketch_shard", p.kpi})
	}
	if background {
		if p.st == nil {
			p.eng.AddTraceSharder(p.sig)
		} else {
			p.eng.AddTraceSharder(tracedSharder[mobsim.DayTrace]{p.st, "signaling.shard", p.sig})
		}
	} else {
		if p.st == nil {
			p.eng.AddEventSharder(p.sig.Events())
		} else {
			p.eng.AddEventSharder(tracedSharder[signaling.Event]{p.st, "signaling.shard", p.sig.Events()})
		}
	}
	p.eng.AddTraceConsumer(p.out)
	return p
}

// drive runs the engine over src to EOF.
func (p *pipeline) drive(ctx context.Context, src stream.Source) error {
	if p.st != nil {
		src = &waitSource{st: p.st, src: src}
	}
	err := p.eng.Run(ctx, src)
	if p.st != nil {
		p.st.endDay()
		events, _ := p.sig.Totals()
		p.st.t.set("signaling.events", float64(events))
	}
	return err
}

// monitorBench is `mnostream` inline: the simulator with the KPI engine
// feeding the sharded monitor with background signaling.
type monitorBench struct {
	cfg          experiments.Config
	first, limit timegrid.SimDay
	d            *experiments.Dataset
}

func newMonitor(sc scale, seed uint64, _ string) bench {
	first, limit := window(sc.Days)
	return &monitorBench{cfg: config(sc.Users, seed), first: first, limit: limit}
}

func (b *monitorBench) setup(tr *tracer) error {
	b.d = buildStack(b.cfg, tr)
	return nil
}

func (b *monitorBench) close() {}

func (b *monitorBench) run(ctx context.Context, tr *tracer) (outcome, error) {
	var p *pipeline
	var src stream.Source
	timed(tr, "stream.build", func() {
		p = newPipeline(b.d, true, tr)
		src = stream.NewSimSource(ctx, b.d.Sim, b.d.Engine, b.first, b.limit, p.scfg)
	})
	if err := p.drive(ctx, src); err != nil {
		return outcome{}, err
	}
	var out outcome
	timed(tr, "bench.verify", func() { out = p.out.outcome() })
	return out, nil
}

// replayBench is `mnostream -feeds` over a CSV feed directory the set-up
// writes with the feeds writers, as `mnosim -raw` does.
type replayBench struct {
	cfg          experiments.Config
	first, limit timegrid.SimDay
	dir          string
	d            *experiments.Dataset
}

func newReplay(sc scale, seed uint64, dir string) bench {
	first, limit := window(sc.Days)
	return &replayBench{cfg: config(sc.Users, seed), first: first, limit: limit,
		dir: filepath.Join(dir, fmt.Sprintf("feed-%d", os.Getpid()))}
}

func (b *replayBench) close() { os.RemoveAll(b.dir) }

func (b *replayBench) setup(tr *tracer) error {
	src := buildStack(b.cfg, tr)
	if err := b.writeFeed(src, tr); err != nil {
		return fmt.Errorf("writing feed: %w", err)
	}
	// The replay side binds its own KPI-less stack, as mnostream -feeds
	// does; the world is the one just built.
	replayCfg := b.cfg
	replayCfg.SkipKPI = true
	timed(tr, "experiments.instantiate", func() { b.d = src.World.Instantiate(replayCfg) })
	return nil
}

// writeFeed writes the window's traces and KPI records and the lockdown
// day's control-plane events. Simulation runs in setup.simulate spans,
// encoding in feeds.encode spans.
func (b *replayBench) writeFeed(d *experiments.Dataset, tr *tracer) error {
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	if err := feeds.WriteMeta(b.dir, feeds.Meta{Users: d.Config.TargetUsers, Seed: d.Config.Seed, Format: feeds.FormatCSV}); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(b.dir, feeds.TraceFeedName))
	if err != nil {
		return err
	}
	defer tf.Close()
	kf, err := os.Create(filepath.Join(b.dir, feeds.KPIFeedName))
	if err != nil {
		return err
	}
	defer kf.Close()
	ef, err := os.Create(filepath.Join(b.dir, feeds.EventFeedName))
	if err != nil {
		return err
	}
	defer ef.Close()

	tw, kw, ew := feeds.NewTraceWriter(tf), feeds.NewKPIWriter(kf), feeds.NewEventWriter(ef)
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := b.first; day < b.limit && err == nil; day++ {
		var traces []mobsim.DayTrace
		timed(tr, "setup.simulate", func() {
			traces = d.Sim.DayInto(buf, day)
			cells = d.Engine.DayAppend(cells[:0], day, traces)
		})
		timed(tr, "feeds.encode", func() {
			if err = tw.WriteDay(day, traces); err == nil {
				err = kw.WriteDay(day, cells)
			}
		})
	}
	if err != nil {
		return err
	}
	var events []signaling.Event
	day := timegrid.LockdownStart.ToSimDay()
	timed(tr, "setup.simulate", func() {
		gen := signaling.NewGenerator(d.Pop, d.Config.Seed)
		gen.Day(day, d.Sim.Day(day), func(ev *signaling.Event) { events = append(events, *ev) })
	})
	timed(tr, "feeds.encode", func() {
		for i := range events {
			ew.Consume(&events[i])
		}
		err = errors.Join(tw.Flush(), kw.Flush(), ew.Flush(), tf.Close(), kf.Close(), ef.Close())
	})
	return err
}

func (b *replayBench) run(ctx context.Context, tr *tracer) (outcome, error) {
	var meta feeds.Meta
	var fs *feeds.FeedSource
	var err error
	timed(tr, "feeds.decode", func() {
		var ok bool
		if meta, ok, err = feeds.ReadMeta(b.dir); err == nil && !ok {
			err = errors.New("feed has no meta sidecar")
		}
		if err == nil {
			fs, err = feeds.OpenDirOpts(b.dir, feeds.Options{})
		}
	})
	if err != nil {
		return outcome{}, err
	}
	defer fs.Close()
	if meta.Users != b.cfg.TargetUsers || meta.Seed != b.cfg.Seed {
		return outcome{}, fmt.Errorf("feed was written for %d users, seed %d", meta.Users, meta.Seed)
	}
	var p *pipeline
	var src stream.Source = fs
	timed(tr, "stream.build", func() {
		p = newPipeline(b.d, false, tr)
		if tr != nil {
			src = &decodeSource{t: tr, src: fs}
		}
		src = stream.Prefetch(src, p.scfg.Buffer)
	})
	if err := p.drive(ctx, src); err != nil {
		return outcome{}, err
	}
	var out outcome
	timed(tr, "bench.verify", func() {
		out = p.out.outcome()
		if n := fs.Skipped(); n != 0 {
			err = fmt.Errorf("replay skipped %d feed rows", n)
		}
		if want := int(b.limit - b.first); out.days != want {
			err = fmt.Errorf("replayed %d days, want %d", out.days, want)
		}
	})
	if tr != nil {
		tr.set("feeds.skipped_rows", float64(fs.Skipped()))
		tr.set("feeds.bytes", float64(dirBytes(b.dir)))
	}
	return out, err
}

// dirBytes is the size of the feed files a replay reads in full.
func dirBytes(dir string) int64 {
	var n int64
	for _, name := range []string{feeds.TraceFeedName, feeds.KPIFeedName, feeds.EventFeedName} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// --- sweep-registry -----------------------------------------------------

// sweepBench is `mnosweep -scenarios all`: every registry scenario over
// one world, with shared-prefix forking and nproc concurrent runs.
type sweepBench struct {
	cfg   experiments.Config
	scens []experiments.SweepScenario
	w     *experiments.World
}

func newSweep(sc scale, seed uint64, _ string) bench {
	return &sweepBench{cfg: config(sc.Users, seed)}
}

func (b *sweepBench) close() {}

func (b *sweepBench) setup(tr *tracer) error {
	for _, name := range scenario.Names() {
		sp, err := scenario.LoadSpec(name)
		if err != nil {
			return err
		}
		s, err := sp.Scenario()
		if err != nil {
			return err
		}
		b.scens = append(b.scens, experiments.SweepScenario{Name: sp.Name, Scenario: s})
	}
	timed(tr, "experiments.new_world", func() { b.w = experiments.NewWorld(b.cfg) })
	return nil
}

func (b *sweepBench) run(ctx context.Context, tr *tracer) (outcome, error) {
	opt := experiments.SweepOptions{Parallel: nproc(), SharePrefix: true}
	scfg := stream.Config{Workers: 1}
	var runs []experiments.SweepRun
	var err error
	if tr == nil {
		runs, err = experiments.RunSweepParallelOpts(ctx, b.w, b.cfg, scfg, b.scens, opt)
	} else {
		// The sweep computes the world's February homes once before its
		// fan-out; calling Homes first moves that pass into its own span
		// without changing the work done.
		tr.do("experiments.homes", func() { b.w.Homes() })
		sweep := tr.open("experiments.sweep", tr.root, laneMain, -1)
		start := tr.now()
		opt.OnRun = func(int, experiments.SweepRun) {
			// Completion latency of each run since the fan-out.
			tr.since("experiments.scenario", sweep, laneWorker, start)
		}
		runs, err = experiments.RunSweepParallelOpts(ctx, b.w, b.cfg, scfg, b.scens, opt)
		tr.close(sweep)
	}
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	timed(tr, "bench.verify", func() {
		h := sha256.New()
		forks, saved := 0, 0
		for _, r := range runs {
			if r.Err != nil {
				err = fmt.Errorf("scenario %s: %w", r.Name, r.Err)
				return
			}
			fmt.Fprintf(h, "run %s forked-from %q prefix-days %d\n", r.Name, r.ForkedFrom, r.PrefixDays)
			if r.ForkedFrom != "" {
				forks++
			}
			saved += r.PrefixDays
		}
		t := experiments.SweepTable(runs)
		for _, row := range t.Rows {
			for j, v := range row.Values {
				fmt.Fprintf(h, "headline %s %s %x\n", row.Label, t.ColNames[j], math.Float64bits(v))
			}
		}
		out = outcome{digest: sum(h), days: len(runs) * (timegrid.SimDays - timegrid.StudyDayOffset),
			note: fmt.Sprintf("%d runs, %d forked, %d prefix days saved", len(runs), forks, saved)}
		if tr != nil {
			tr.set("experiments.forks", float64(forks))
			tr.set("experiments.prefix_days_saved", float64(saved))
		}
	})
	return out, err
}
