package signaling

import (
	"math/bits"
	"slices"

	"repro/internal/devices"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// Aggregator reduces a raw event stream to the postcode-level feed the
// paper actually analyses ("these feeds are aggregated at postcode level
// or larger granularity", §2.2): per-district per-type counts, failure
// tallies, distinct-user reach and RAT usage.
//
// Its state is dense and sized once at construction: district counts
// indexed by census.DistrictID (districts are numbered 0..n-1) and a
// distinct-user bitset indexed by popsim.UserID (users are numbered
// 0..n-1). Consume never grows either, so a replayed event naming a user
// or tower outside the world panics on the index — the stream engine
// reports that as a typed *stream.WorkerPanic — instead of allocating.
type Aggregator struct {
	topo *radio.Topology

	// ByDistrict is indexed by census.DistrictID.
	ByDistrict []DistrictCounts
	ByType     [NumEventTypes]int64
	Failures   int64
	Total      int64
	usersSeen  []uint64 // bitset over popsim.UserID
}

// DistrictCounts is the per-postcode aggregate.
type DistrictCounts struct {
	ByType   [NumEventTypes]int64
	Failures int64
	Total    int64
}

// NewAggregator builds an aggregator over a topology's districts and a
// population of the given number of SIMs (user IDs 0..users-1).
func NewAggregator(topo *radio.Topology, users int) *Aggregator {
	return &Aggregator{
		topo:       topo,
		ByDistrict: make([]DistrictCounts, len(topo.Model().Districts)),
		usersSeen:  make([]uint64, (users+63)/64),
	}
}

// Consume ingests one event; it is an EmitFunc. It panics, leaving the
// aggregator unchanged, on an event whose user, tower or type lies
// outside the world the aggregator was built for.
func (a *Aggregator) Consume(e *Event) {
	dc := &a.ByDistrict[a.topo.Towers[e.Tower].District]
	w := &a.usersSeen[e.User/64]
	n := &a.ByType[e.Type]
	a.Total++
	*n++
	dc.Total++
	dc.ByType[e.Type]++
	if !e.OK {
		a.Failures++
		dc.Failures++
	}
	*w |= 1 << (e.User % 64)
}

// Merge folds another aggregator's tallies into a; both must be built
// over the same world. Every aggregate is an integer count or a
// distinct-user set, so merging (add and OR) is exact: partitioning an
// event stream across shard-local aggregators and merging them — in any
// order — reproduces a single aggregator over the whole stream.
func (a *Aggregator) Merge(o *Aggregator) {
	a.Total += o.Total
	a.Failures += o.Failures
	for t := range o.ByType {
		a.ByType[t] += o.ByType[t]
	}
	for d := range o.ByDistrict {
		dc, oc := &a.ByDistrict[d], &o.ByDistrict[d]
		dc.Total += oc.Total
		dc.Failures += oc.Failures
		for t := range oc.ByType {
			dc.ByType[t] += oc.ByType[t]
		}
	}
	for i, w := range o.usersSeen {
		a.usersSeen[i] |= w
	}
}

// Fork returns an independent deep copy of the aggregator: both copies
// can consume further events (e.g. under different scenarios) without
// sharing any mutable state, so a.Fork() fed stream X equals a fed X.
func (a *Aggregator) Fork() *Aggregator {
	f := *a
	f.ByDistrict = slices.Clone(a.ByDistrict)
	f.usersSeen = slices.Clone(a.usersSeen)
	return &f
}

// DistinctUsers returns how many distinct SIMs appeared in the feed.
func (a *Aggregator) DistinctUsers() int {
	n := 0
	for _, w := range a.usersSeen {
		n += bits.OnesCount64(w)
	}
	return n
}

// FailureRate returns the overall event failure fraction.
func (a *Aggregator) FailureRate() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Failures) / float64(a.Total)
}

// FilterReport reproduces the §2.3 population funnel: from all SIMs on
// the network down to the native-smartphone analysis population (the
// paper: ~22M native smartphone users retained, M2M and inbound roamers
// dropped).
type FilterReport struct {
	TotalSIMs         int
	Smartphones       int
	M2MDropped        int
	RoamersDropped    int
	NonSmartDropped   int
	NativeSmartphones int
}

// FilterPopulation applies the TAC-catalog and PLMN filters to the
// population, as the paper does before any mobility analysis.
func FilterPopulation(pop *popsim.Population, catalog *devices.Catalog) FilterReport {
	var r FilterReport
	for i := range pop.Users {
		u := &pop.Users[i]
		r.TotalSIMs++
		isSmart := catalog.IsSmartphone(u.Device.TAC)
		if isSmart {
			r.Smartphones++
		}
		switch {
		case u.Device.Class == devices.ClassM2M:
			r.M2MDropped++
		case !u.PLMN.IsNative():
			r.RoamersDropped++
		case !isSmart:
			r.NonSmartDropped++
		default:
			r.NativeSmartphones++
		}
	}
	return r
}

// RATShare accumulates connected time per RAT from traces, reproducing
// the §2.4 observation that users spend ~75% of their time on 4G cells.
type RATShare struct {
	gen     *Generator
	seconds [radio.NumRATs]float64
}

// NewRATShare builds the accumulator.
func NewRATShare(gen *Generator) *RATShare { return &RATShare{gen: gen} }

// ConsumeDay attributes each visit's dwell to a RAT using the same
// camping model the event generator uses.
func (r *RATShare) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	for i := range traces {
		t := &traces[i]
		u := r.gen.pop.User(t.User)
		src := rng.Stream2(r.gen.seed, uint64(t.User), uint64(day))
		for _, v := range t.Visits {
			tw := r.gen.topo.Tower(v.Tower())
			rat := r.gen.ratFor(u, tw, &src)
			r.seconds[rat] += float64(v.Seconds())
		}
	}
}

// Shares returns the fraction of connected time per RAT.
func (r *RATShare) Shares() [radio.NumRATs]float64 {
	var total float64
	for _, s := range r.seconds {
		total += s
	}
	var out [radio.NumRATs]float64
	if total == 0 {
		return out
	}
	for i, s := range r.seconds {
		out[i] = s / total
	}
	return out
}
