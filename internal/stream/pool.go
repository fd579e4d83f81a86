package stream

import (
	"sync/atomic"

	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// BufferPool is a bounded, non-blocking free list of day-production
// backing stores (a mobsim.DayBuffer plus a reusable CellDay slice).
// Every SimSource owns a private pool sized to its in-flight window, so
// a released batch's buffers are reused by a later day of the same run.
//
// Draws never block: when every pooled store is checked out (or
// consumers never release), Get allocates a fresh store, so liveness
// cannot depend on Release being called. Returns past the pool's
// capacity are dropped to the GC.
//
// Release safety: every checkout stamps the store with a fresh
// generation, carried on the DayBatch. A release whose generation does
// not match the store's current one — a double release of the same
// batch, or a stale batch copy released after the store was re-issued
// to another producer — is rejected and counted (DoubleReleases,
// stream.pool.double_release) instead of enqueueing a buffer that is
// still owned by someone else.
//
// A pool is safe for concurrent use; a store, once drawn, belongs to
// exactly one producer until its batch is released.
type BufferPool struct {
	free chan *dayStore

	// hits/misses count draws served from the free list versus fresh
	// allocations (stream.pool.hits / stream.pool.misses); nil — a no-op
	// Add — until Instrument is called. A healthy steady state is all
	// hits after the warmup window; a growing miss count means the pool
	// is undersized for the in-flight window or batches are not released.
	hits   *obs.Counter
	misses *obs.Counter
	// doubleRel counts rejected releases (stream.pool.double_release);
	// also mirrored into the process-wide DoubleReleases ledger.
	doubleRel *obs.Counter

	rejected atomic.Int64
}

// Instrument resolves the pool's hit/miss counters from r (nil registry:
// no-op) and returns the receiver. Call before the pool is shared across
// goroutines — the handles are plain fields, written once here.
func (p *BufferPool) Instrument(r *obs.Registry) *BufferPool {
	if r != nil {
		p.hits = r.Counter("stream.pool.hits")
		p.misses = r.Counter("stream.pool.misses")
		p.doubleRel = r.Counter("stream.pool.double_release")
	}
	return p
}

// Rejected returns how many releases this pool refused (double or
// stale); tests pin it at zero on every clean and faulted path.
func (p *BufferPool) Rejected() int64 { return p.rejected.Load() }

// dayStore is one recyclable backing store for a produced day.
type dayStore struct {
	pool  *BufferPool
	buf   *mobsim.DayBuffer
	cells []traffic.CellDay
	// out is true while the store is checked out of the free list; gen
	// is bumped at every checkout. Together they make Recycle reject
	// anything but exactly one release of the current checkout.
	out atomic.Bool
	gen atomic.Uint64
}

// Recycle implements Recycler: it returns the store to its pool's free
// list iff gen names the store's current checkout and the store is
// still out. Anything else — a second release of the same batch, or a
// stale copy from an earlier checkout — is reported and refused, so a
// buffer can never reach the free list while another producer owns it.
func (r *dayStore) Recycle(gen uint64) {
	if r.gen.Load() != gen || !r.out.CompareAndSwap(true, false) {
		r.pool.rejected.Add(1)
		r.pool.doubleRel.Inc()
		ReportDoubleRelease()
		return
	}
	select {
	case r.pool.free <- r:
	default:
	}
}

// NewBufferPool builds a pool that retains at most capacity idle
// stores. Sources size their pools to their in-flight window
// (workers + buffer), which keeps the steady state allocation-free.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{free: make(chan *dayStore, capacity)}
}

// get draws a store, reusing a pooled one when available. The returned
// store is stamped with a fresh generation (read it with curGen when
// building the DayBatch).
func (p *BufferPool) get() *dayStore {
	var r *dayStore
	select {
	case r = <-p.free:
		p.hits.Inc()
	default:
		p.misses.Inc()
		r = &dayStore{pool: p, buf: mobsim.NewDayBuffer()}
	}
	r.gen.Add(1)
	r.out.Store(true)
	return r
}

// curGen is the store's current checkout generation, carried on the
// DayBatch drawn from it.
func (r *dayStore) curGen() uint64 { return r.gen.Load() }
