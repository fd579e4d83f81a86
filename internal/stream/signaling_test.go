package stream

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/timegrid"
)

var (
	sigOnce sync.Once
	sigPop  *popsim.Population
	sigSim  *mobsim.Simulator
)

// signalingFixture is a 1500-SIM world with M2M and roamer background.
func signalingFixture() (*popsim.Population, *mobsim.Simulator) {
	sigOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		sigPop = popsim.Synthesize(m, topo, popsim.Config{
			Seed: 1, TargetUsers: 1500, M2MFraction: 0.1, RoamerFraction: 0.05,
		})
		sigSim = mobsim.New(sigPop, pandemic.Default(), 1)
	})
	return sigPop, sigSim
}

// TestSignalingShardDayAllocs pins the signaling stage's allocation
// budget: a warm shard day makes at most one allocation per generated
// user-day (the generator's per-call scratch), however many events it
// emits and aggregates.
func TestSignalingShardDayAllocs(t *testing.T) {
	pop, sim := signalingFixture()
	day := timegrid.SimDay(10)
	traces := sim.Day(day)
	sig := NewSignaling(signaling.NewGenerator(pop, 1), pop.Topology(), 1, true)
	idx := make([]int, len(traces))
	for i := range idx {
		idx[i] = i
	}
	userDays := len(traces) + len(sig.background[0])
	sig.ShardDay(0, day, traces, idx) // warm
	allocs := testing.AllocsPerRun(3, func() { sig.ShardDay(0, day, traces, idx) })
	if allocs > float64(userDays) {
		t.Errorf("warm ShardDay: %.0f allocs for %d user-days, want ≤ 1 per user-day", allocs, userDays)
	}
	if events, _ := sig.Totals(); events == 0 {
		t.Fatal("no events aggregated")
	}
}

// TestSignalingReplayRejectsOutOfWorldEvent replays an event feed
// through the engine with one event naming a user or tower outside the
// world: the day must fail as a typed *WorkerPanic, and the aggregator
// must not grow to fit the hostile ID.
func TestSignalingReplayRejectsOutOfWorldEvent(t *testing.T) {
	pop, _ := signalingFixture()
	topo := pop.Topology()
	cases := map[string]signaling.Event{
		"user 1<<31":         {User: 1 << 31, Tower: 0},
		"user past world":    {User: popsim.UserID(len(pop.Users) + 64), Tower: 0},
		"tower past world":   {User: 1, Tower: radio.TowerID(len(topo.Towers))},
		"negative tower ID":  {User: 1, Tower: -1},
		"event type too big": {User: 1, Tower: 0, Type: signaling.EventType(signaling.NumEventTypes)},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			sig := NewSignaling(signaling.NewGenerator(pop, 1), topo, 2, false)
			events := make([]signaling.Event, 100)
			for i := range events {
				events[i] = signaling.Event{User: popsim.UserID(i), Day: 3, Tower: radio.TowerID(i % len(topo.Towers)), OK: true}
			}
			bad.Day = 3
			events[50] = bad
			e := NewEngine(Config{Workers: 2, Shards: 2})
			e.AddEventSharder(sig.Events())

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := e.Run(context.Background(), NewSliceSource([]DayBatch{{Day: 3, Events: events}}))
			runtime.ReadMemStats(&after)

			var wp *WorkerPanic
			if !errors.As(err, &wp) {
				t.Fatalf("want *WorkerPanic, got %T: %v", err, err)
			}
			if wp.Stage != "shard" || wp.Day != 3 {
				t.Errorf("panic context: stage=%q day=%d, want shard/3", wp.Stage, wp.Day)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("replaying one hostile event allocated %d bytes, want < 1 MB", grew)
			}
		})
	}
}
