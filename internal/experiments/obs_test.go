package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// TestStreamingInstrumentedBitIdentical pins the end-to-end observability
// contract at the pipeline level: running the streaming pipeline with a
// live metrics registry yields results bit-identical to the serial
// pipeline, and the registry comes back populated with the core stage
// metrics — worker busy time, pool hit/miss accounting, per-day produce
// latency and the traffic engine's day timings.
func TestStreamingInstrumentedBitIdentical(t *testing.T) {
	cfg := streamingTestConfig()
	serial := serialStandard(NewDataset(cfg))

	reg := obs.New()
	got := mustRunOn(t, NewDataset(cfg), stream.Config{Workers: 3, Metrics: reg})
	assertResultsEqual(t, serial, got)

	s := reg.Snapshot()
	// February home detection plus the study window, one produced batch
	// (and one engine day) each.
	const totalDays = timegrid.FebruaryDays + (timegrid.SimDays - timegrid.StudyDayOffset)
	const studyDays = timegrid.SimDays - timegrid.StudyDayOffset

	for _, name := range []string{
		"stream.worker.busy_ns",
		"stream.worker.idle_ns",
		"stream.pool.hits",
		"stream.pool.misses",
		"traffic.visits",
	} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("counter %s missing from snapshot", name)
		}
	}
	if s.Counters["stream.worker.busy_ns"] <= 0 {
		t.Errorf("stream.worker.busy_ns = %d, want > 0", s.Counters["stream.worker.busy_ns"])
	}
	if got := s.Counters["stream.engine.days"]; got != totalDays {
		t.Errorf("stream.engine.days = %d, want %d (Feb pass + study window)", got, totalDays)
	}
	if got := s.Histograms["stream.produce_day_ns"].Count; got != totalDays {
		t.Errorf("stream.produce_day_ns count = %d, want %d (one per produced day)", got, totalDays)
	}
	// The traffic engine only runs inside the study window (the February
	// pass carries no KPI engine).
	if got := s.Histograms["traffic.day_ns"].Count; got != studyDays {
		t.Errorf("traffic.day_ns count = %d, want %d (one per study day)", got, studyDays)
	}
	// The study source draws its day stores from an instrumented pool.
	if total := s.Counters["stream.pool.hits"] + s.Counters["stream.pool.misses"]; total < studyDays {
		t.Errorf("pool hits+misses = %d, want >= %d (one draw per study day)", total, studyDays)
	}
}

// sweepMetricKeys is the size of a KPI-enabled sweep's metric catalog:
// 6 sweep.* keys, 2 traffic.* keys and, since every run is on the
// stream engine, 27 stream.* keys (engine, source, buffer pool and the
// 8 default shards' trace/visit tallies).
const sweepMetricKeys = 35

// TestSweepParallelInstrumented pins the sweep-level metrics in every
// scheduler mode: every scenario run is counted once, every scheduled
// day loop (riders ride inside their host's) is timed and queue-stamped
// once, the world-builds gauge records the shared-dataset guarantee
// (builds do not scale with runs), the traffic engine's day latency is
// reported, and every mode writes the same metric catalog of
// sweepMetricKeys keys.
func TestSweepParallelInstrumented(t *testing.T) {
	cfg := streamingTestConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.VoiceSurge)
	w := NewWorld(cfg)

	catalogs := map[string][]string{}
	for _, opt := range sweepModes(1, 2) {
		mode := fmt.Sprintf("parallel=%d/share=%t", opt.Parallel, opt.SharePrefix)
		t.Run(mode, func(t *testing.T) {
			loops := int64(len(scens))
			if opt.SharePrefix {
				plan := planPrefix(scens)
				for i := range scens {
					if plan.rider[i] {
						loops--
					}
				}
			}
			reg := obs.New()
			before := WorldBuildCount()
			runs := mustSweep(t, w, cfg, stream.Config{Workers: 1, Metrics: reg}, scens, opt)
			if len(runs) != len(scens) {
				t.Fatalf("got %d runs, want %d", len(runs), len(scens))
			}

			s := reg.Snapshot()
			catalogs[mode] = metricKeys(s)
			if got := len(catalogs[mode]); got != sweepMetricKeys {
				t.Errorf("sweep wrote %d metric keys, want %d: %v", got, sweepMetricKeys, catalogs[mode])
			}
			if s.Counters["stream.engine.days"] == 0 {
				t.Error("stream.engine.days is zero: the sweep's runs are not on the instrumented engine")
			}
			if got := s.Counters["sweep.runs"]; got != int64(len(scens)) {
				t.Errorf("sweep.runs = %d, want %d", got, len(scens))
			}
			if got := s.Histograms["sweep.run_ns"].Count; got != loops {
				t.Errorf("sweep.run_ns count = %d, want %d", got, loops)
			}
			if got := s.Histograms["sweep.queue_wait_ns"].Count; got != loops {
				t.Errorf("sweep.queue_wait_ns count = %d, want %d", got, loops)
			}
			if got := s.Gauges["sweep.world_builds"]; got != WorldBuildCount() {
				t.Errorf("sweep.world_builds = %d, want %d (current WorldBuildCount)", got, WorldBuildCount())
			}
			if s.Histograms["traffic.day_ns"].Count == 0 {
				t.Error("traffic.day_ns empty: the sweep's engines are not instrumented")
			}
			if extra := WorldBuildCount() - before; extra != 0 {
				t.Errorf("instrumented sweep built %d extra worlds, want 0", extra)
			}
		})
	}

	var first string
	for _, opt := range sweepModes(1, 2) {
		mode := fmt.Sprintf("parallel=%d/share=%t", opt.Parallel, opt.SharePrefix)
		if first == "" {
			first = mode
			continue
		}
		if !slices.Equal(catalogs[mode], catalogs[first]) {
			t.Errorf("metric catalog differs between sweep modes\n%s: %v\n%s: %v", first, catalogs[first], mode, catalogs[mode])
		}
	}
}

// metricKeys lists every metric name in a snapshot, sorted.
func metricKeys(s obs.Snapshot) []string {
	var keys []string
	for k := range s.Counters {
		keys = append(keys, k)
	}
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
