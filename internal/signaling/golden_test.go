package signaling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/timegrid"
)

// eventStreamGolden is the SHA-256 of every field of every event the
// generator emits on the 1500-user fixture (see TestEventStreamGolden).
// Any change to the draw order, a sampler or a field's value changes it.
const eventStreamGolden = "47cec615a5b2b0c76ad168fe3d51bcfb088398a8bec2f4cd43e4b3c664acdbcb"

// hashEvent folds every field of e into h in a fixed little-endian
// layout.
func hashEvent(h hash.Hash, e *Event) {
	var b [38]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(e.User))
	binary.LittleEndian.PutUint64(b[4:], uint64(e.Day))
	binary.LittleEndian.PutUint32(b[12:], uint32(e.SecOfDay))
	binary.LittleEndian.PutUint32(b[16:], uint32(e.Type))
	binary.LittleEndian.PutUint32(b[20:], uint32(e.Tower))
	b[24] = e.Sector
	binary.LittleEndian.PutUint32(b[25:], uint32(e.RAT))
	binary.LittleEndian.PutUint32(b[29:], uint32(e.TAC))
	binary.LittleEndian.PutUint16(b[33:], e.PLMN.MCC)
	binary.LittleEndian.PutUint16(b[35:], e.PLMN.MNC)
	if e.OK {
		b[37] = 1
	}
	h.Write(b[:])
}

// TestEventStreamGolden pins the generated event stream bit for bit, in
// emission order: Generator.Day (native, M2M and roamer events) followed
// by VoiceDay at a surge factor of 1.6, on a baseline day and on a
// lockdown day (roamers mostly gone). TestEventDeterminism only compares
// the generator with itself; this test compares it with the recorded
// stream, so a reordered draw cannot pass.
func TestEventStreamGolden(t *testing.T) {
	_, sim, gen := fixture(t)
	h := sha256.New()
	n := 0
	emit := func(e *Event) { hashEvent(h, e); n++ }
	for _, day := range []timegrid.SimDay{10, (timegrid.LockdownStart + 5).ToSimDay()} {
		traces := sim.Day(day)
		gen.Day(day, traces, emit)
		for i := range traces {
			gen.VoiceDay(&traces[i], day, 1.6, emit)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != eventStreamGolden {
		t.Errorf("event stream hash over %d events = %s, want %s", n, got, eventStreamGolden)
	}
}
