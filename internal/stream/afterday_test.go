package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// orderLog records the merge-stage calls of one engine, in call order.
type orderLog struct{ calls []string }

func (l *orderLog) add(what string, day timegrid.SimDay) {
	l.calls = append(l.calls, fmt.Sprintf("%s:%d", what, day))
}

type logSharder struct{ log *orderLog }

func (s logSharder) BeginDay(timegrid.SimDay, []mobsim.DayTrace)             {}
func (s logSharder) ShardDay(int, timegrid.SimDay, []mobsim.DayTrace, []int) {}
func (s logSharder) EndDay(day timegrid.SimDay)                              { s.log.add("end", day) }

type logTraces struct{ log *orderLog }

func (c logTraces) ConsumeDay(day timegrid.SimDay, _ []mobsim.DayTrace) { c.log.add("trace", day) }

type logKPI struct{ log *orderLog }

func (c logKPI) ConsumeDay(day timegrid.SimDay, _ []traffic.CellDay) { c.log.add("kpi", day) }

// stopRecorder wraps a source and records whether the engine stopped it.
type stopRecorder struct {
	Source
	stopped bool
}

func (s *stopRecorder) Stop() { s.stopped = true }

// TestEngineAfterDayFollowsMerge pins where the day-boundary callback
// runs: after the day's whole merge stage — sharder EndDay, serial
// trace consumers, serial KPI consumers — on days without cells too,
// and after the day's batch was released.
func TestEngineAfterDayFollowsMerge(t *testing.T) {
	batches, released, double := countingBatches(4, 10)
	for _, d := range []int{0, 2} {
		batches[d].Cells = []traffic.CellDay{{}}
	}
	log := &orderLog{}
	e := NewEngine(Config{Workers: 2, Shards: 2})
	e.AddTraceSharder(logSharder{log})
	e.AddTraceConsumer(logTraces{log})
	e.AddKPIConsumer(logKPI{log})
	e.AfterDay(func(day timegrid.SimDay) error {
		if got := released.Load(); got != int64(day)+1 {
			t.Errorf("day %d: callback ran with %d batches released, want %d", day, got, day+1)
		}
		log.add("after", day)
		return nil
	})
	if err := e.Run(context.Background(), NewSliceSource(batches)); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"end:0", "trace:0", "kpi:0", "after:0",
		"end:1", "trace:1", "after:1",
		"end:2", "trace:2", "kpi:2", "after:2",
		"end:3", "trace:3", "after:3",
	}
	if !slices.Equal(log.calls, want) {
		t.Fatalf("merge-stage order\n got %v\nwant %v", log.calls, want)
	}
	if double.Load() != 0 {
		t.Errorf("%d double releases", double.Load())
	}
}

// TestEngineAfterDayFailureEndsRun pins the callback's failure
// semantics: an error ends Run with that error and a panic with a
// *WorkerPanic of stage "boundary"; either way no further day is
// pulled, every pulled batch is released once and the source is
// stopped.
func TestEngineAfterDayFailureEndsRun(t *testing.T) {
	stop := errors.New("stop")
	for _, tc := range []struct {
		name string
		hook func(day timegrid.SimDay) error
	}{
		{"error", func(day timegrid.SimDay) error {
			if day == 1 {
				return stop
			}
			return nil
		}},
		{"panic", func(day timegrid.SimDay) error {
			if day == 1 {
				panic("boundary bug")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batches, released, double := countingBatches(5, 10)
			src := &stopRecorder{Source: NewSliceSource(batches)}
			e := NewEngine(Config{Workers: 2, Shards: 2})
			e.AfterDay(tc.hook)
			err := e.Run(context.Background(), src)
			if tc.name == "error" && err != stop {
				t.Fatalf("want the callback's error, got %v", err)
			}
			if tc.name == "panic" {
				var wp *WorkerPanic
				if !errors.As(err, &wp) || wp.Stage != "boundary" || wp.Day != 1 {
					t.Fatalf("want *WorkerPanic at boundary day 1, got %v", err)
				}
			}
			if !src.stopped {
				t.Error("source not stopped after a failed boundary")
			}
			if released.Load() != 2 || double.Load() != 0 {
				t.Errorf("released=%d double=%d, want 2/0", released.Load(), double.Load())
			}
		})
	}
}

// TestSimSourceWindowCountsHeldDay pins the backpressure window: the
// day the consumer holds counts against Workers+Buffer, so a slow
// consumer never has more than that many day stores live — the pool
// allocates at most one per window slot.
func TestSimSourceWindowCountsHeldDay(t *testing.T) {
	_, sim := signalingFixture()
	base := runtime.NumGoroutine()
	for _, cfg := range []Config{{Workers: 1, Buffer: 1}, {Workers: 2, Buffer: 1}} {
		reg := obs.New()
		cfg.Metrics = reg
		src := NewSimSource(context.Background(), sim, nil, 0, 8, cfg)
		days := 0
		for {
			b, err := src.Next()
			if err != nil {
				break
			}
			time.Sleep(5 * time.Millisecond) // let the producers run ahead
			b.Release()
			days++
		}
		if days != 8 {
			t.Fatalf("%+v: read %d days, want 8", cfg, days)
		}
		window := int64(cfg.Workers + cfg.Buffer)
		if misses := reg.Counter("stream.pool.misses").Value(); misses > window {
			t.Errorf("Workers=%d Buffer=%d: %d day stores allocated, want <= %d live", cfg.Workers, cfg.Buffer, misses, window)
		}
	}
	settleGoroutines(t, base)
}
