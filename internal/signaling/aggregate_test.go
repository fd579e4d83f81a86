package signaling_test

import (
	"testing"

	"repro/internal/census"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/signaling"
	"repro/internal/stream"
)

// mapAggregator is the map-based aggregator the dense one replaced,
// kept as the test oracle: a lookup-or-insert district map and a
// distinct-user set, grown on demand.
type mapAggregator struct {
	topo       *radio.Topology
	byDistrict map[census.DistrictID]*signaling.DistrictCounts
	byType     [signaling.NumEventTypes]int64
	failures   int64
	total      int64
	usersSeen  map[popsim.UserID]bool
}

func newMapAggregator(topo *radio.Topology) *mapAggregator {
	return &mapAggregator{
		topo:       topo,
		byDistrict: make(map[census.DistrictID]*signaling.DistrictCounts),
		usersSeen:  make(map[popsim.UserID]bool),
	}
}

func (a *mapAggregator) consume(e *signaling.Event) {
	a.total++
	a.byType[e.Type]++
	if !e.OK {
		a.failures++
	}
	d := a.topo.Tower(e.Tower).District
	dc := a.byDistrict[d]
	if dc == nil {
		dc = &signaling.DistrictCounts{}
		a.byDistrict[d] = dc
	}
	dc.Total++
	dc.ByType[e.Type]++
	if !e.OK {
		dc.Failures++
	}
	a.usersSeen[e.User] = true
}

func (a *mapAggregator) failureRate() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.failures) / float64(a.total)
}

// checkAgainstOracle asserts every count of got equals the oracle's.
func checkAgainstOracle(t *testing.T, label string, got *signaling.Aggregator, want *mapAggregator) {
	t.Helper()
	if got.Total != want.total || got.Failures != want.failures || got.ByType != want.byType {
		t.Fatalf("%s: totals %d/%d/%v, oracle %d/%d/%v", label,
			got.Total, got.Failures, got.ByType, want.total, want.failures, want.byType)
	}
	for d := range got.ByDistrict {
		var w signaling.DistrictCounts
		if dc := want.byDistrict[census.DistrictID(d)]; dc != nil {
			w = *dc
		}
		if got.ByDistrict[d] != w {
			t.Fatalf("%s: district %d = %+v, oracle %+v", label, d, got.ByDistrict[d], w)
		}
	}
	if n := len(want.byDistrict); n > len(got.ByDistrict) {
		t.Fatalf("%s: oracle has %d districts, aggregator %d", label, n, len(got.ByDistrict))
	}
	if got.DistinctUsers() != len(want.usersSeen) {
		t.Fatalf("%s: distinct users %d, oracle %d", label, got.DistinctUsers(), len(want.usersSeen))
	}
	if got.FailureRate() != want.failureRate() {
		t.Fatalf("%s: failure rate %v, oracle %v", label, got.FailureRate(), want.failureRate())
	}
}

// randomEvents draws n events over user IDs [lo, hi) and every tower
// of topo; the range ends and the users at the first bitset word edge
// recur.
func randomEvents(src *rng.Source, topo *radio.Topology, lo, hi, n int) []signaling.Event {
	var edges []int
	for _, u := range []int{lo, 63, 64, 65, hi - 1} {
		if u >= lo && u < hi {
			edges = append(edges, u)
		}
	}
	out := make([]signaling.Event, n)
	for i := range out {
		u := lo + src.Intn(hi-lo)
		if src.Bool(0.05) {
			u = edges[src.Intn(len(edges))]
		}
		out[i] = signaling.Event{
			User:  popsim.UserID(u),
			Day:   7,
			Type:  signaling.EventType(src.Intn(signaling.NumEventTypes)),
			Tower: radio.TowerID(src.Intn(len(topo.Towers))),
			OK:    !src.Bool(0.1),
		}
	}
	return out
}

// TestAggregatorMatchesOracle feeds random event streams through the
// dense aggregator split across k shards by stream.ShardOfUser, merges
// the shards in shuffled order, and asserts every aggregate equals the
// map-based oracle fed the unsplit stream.
func TestAggregatorMatchesOracle(t *testing.T) {
	topo := radio.Build(census.BuildUK(1), radio.DefaultConfig(), 1)
	const users = 1000
	src := rng.New(11)
	for trial := 0; trial < 3; trial++ {
		events := randomEvents(src, topo, 0, users, 20_000)
		oracle := newMapAggregator(topo)
		for i := range events {
			oracle.consume(&events[i])
		}
		for _, k := range []int{1, 2, 3, 7} {
			shards := make([]*signaling.Aggregator, k)
			for i := range shards {
				shards[i] = signaling.NewAggregator(topo, users)
			}
			for i := range events {
				shards[stream.ShardOfUser(uint64(events[i].User), k)].Consume(&events[i])
			}
			merged := signaling.NewAggregator(topo, users)
			for _, i := range src.Perm(k) {
				merged.Merge(shards[i])
			}
			checkAgainstOracle(t, "merged", merged, oracle)
		}
	}
}

// TestAggregatorForkDiverges forks an aggregator mid-stream and feeds
// the two copies suffixes over disjoint user ranges: each must equal the
// oracle over its own prefix+suffix, so a fork shares no mutable state
// with its parent.
func TestAggregatorForkDiverges(t *testing.T) {
	topo := radio.Build(census.BuildUK(1), radio.DefaultConfig(), 1)
	const users = 700
	src := rng.New(12)
	prefix := randomEvents(src, topo, 0, 300, 5_000)
	x := randomEvents(src, topo, 300, 500, 5_000)
	y := randomEvents(src, topo, 500, users, 3_000)

	a := signaling.NewAggregator(topo, users)
	oa, of := newMapAggregator(topo), newMapAggregator(topo)
	for i := range prefix {
		a.Consume(&prefix[i])
		oa.consume(&prefix[i])
		of.consume(&prefix[i])
	}
	f := a.Fork()
	for i := range x {
		a.Consume(&x[i])
		oa.consume(&x[i])
	}
	for i := range y {
		f.Consume(&y[i])
		of.consume(&y[i])
	}
	checkAgainstOracle(t, "parent", a, oa)
	checkAgainstOracle(t, "fork", f, of)
}
