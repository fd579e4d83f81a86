package feeds

import (
	"bytes"
	"encoding/csv"
	"io"
	"regexp"
	"strings"
	"testing"

	"repro/internal/signaling"
)

// eventErrLine is the context every event-reader error must carry.
var eventErrLine = regexp.MustCompile(`event feed:[0-9]+: `)

// FuzzEventReader feeds arbitrary bytes to the CSV event reader — the
// decoder that feeds the signaling aggregator on replay — in both
// failure modes and pins its contract: never panic, every error names
// "event feed:<line>", and every row the strict reader accepts
// re-encodes through EventWriter to the same fields, byte for byte.
func FuzzEventReader(f *testing.F) {
	hdr := strings.Join(eventHeader, ",") + "\n"
	f.Add([]byte(hdr + "1,2,3,0,4,0,2,1,234,10,1\n1,5,4294967295,11,2147483647,255,0,4294967295,65535,65535,0\n"))
	f.Add([]byte(hdr + "1,2,3,999,4,0,2,1,234,10,1\n"))
	f.Add([]byte(hdr + "-1,-2147483648,0,0,0,0,0,0,0,0,1\r\n\"1\",2,3,0,4,0,2,1,234,10,1\n"))
	f.Add([]byte(hdr + "+1,02,3,0,4,300,2,1,234,10,1\n1,2,3\n"))
	f.Add([]byte(hdr + "1,2,3,0,4,0,2,1,234,10,maybe"))
	f.Add([]byte("day,sec\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkErr := func(err error) {
			if err != nil && err != io.EOF && !eventErrLine.MatchString(err.Error()) {
				t.Fatalf("error %q names no event feed:<line>", err)
			}
		}
		// Lenient: skips corrupt rows, so it must terminate and keep the
		// error contract for whatever is fatal.
		if r, err := NewEventReaderOpts(bytes.NewReader(data), Options{Lenient: true}); err != nil {
			checkErr(err)
		} else {
			for i := 0; i <= len(data); i++ {
				if _, err := r.Read(); err != nil {
					checkErr(err)
					break
				}
			}
		}

		// Strict: the i-th accepted event is the i-th CSV record after
		// the header.
		r, err := NewEventReaderOpts(bytes.NewReader(data), Options{})
		if err != nil {
			checkErr(err)
			return
		}
		raw := csv.NewReader(bytes.NewReader(data))
		raw.FieldsPerRecord = len(eventHeader)
		if _, err := raw.Read(); err != nil {
			t.Fatalf("reader accepted a header raw CSV rejects: %v", err)
		}
		var out bytes.Buffer
		w := NewEventWriter(&out)
		var accepted [][]string
		for i := 0; i <= len(data); i++ {
			ev, err := r.Read()
			if err != nil {
				checkErr(err)
				break
			}
			rec, err := raw.Read()
			if err != nil {
				t.Fatalf("event %d accepted, raw CSV: %v", i, err)
			}
			accepted = append(accepted, rec)
			w.Consume(&ev)
		}
		if len(accepted) == 0 {
			return
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back := csv.NewReader(&out)
		if hdr, err := back.Read(); err != nil || !equalRow(hdr, eventHeader) {
			t.Fatalf("writer header %q: %v", hdr, err)
		}
		for i, want := range accepted {
			got, err := back.Read()
			if err != nil {
				t.Fatalf("re-encoded row %d: %v", i, err)
			}
			if !equalRow(got, want) {
				t.Fatalf("row %d re-encodes as %q, read %q", i, got, want)
			}
		}
	})
}

// TestEventReaderRejectsTruncatingFields pins the range checks the fuzz
// contract needs: values a field cannot hold, and non-canonical
// spellings, are row errors instead of silently different events.
func TestEventReaderRejectsTruncatingFields(t *testing.T) {
	hdr := strings.Join(eventHeader, ",") + "\n"
	for _, row := range []string{
		"1,2,3,0,4,256,2,1,234,10,1",        // sector past uint8
		"1,2,4294967296,0,4,0,2,1,234,10,1", // user past uint32
		"1,2,3,0,-1,0,2,1,234,10,1",         // negative tower
		"1,2,3,0,4,0,3,1,234,10,1",          // RAT past the enum
		"1,2,3,0,4,0,2,1,65536,10,1",        // MCC past uint16
		"1,2147483648,3,0,4,0,2,1,234,10,1", // second past int32
		"+1,2,3,0,4,0,2,1,234,10,1",         // explicit plus sign
		"1,02,3,0,4,0,2,1,234,10,1",         // leading zero
		"-0,2,3,0,4,0,2,1,234,10,1",         // negative zero
		"1,2,3,0,4,0,2,1,234,10,1,extra",    // wrong field count
	} {
		r, err := NewEventReader(strings.NewReader(hdr + row + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := r.Read()
		if err == nil {
			t.Errorf("row %q accepted as %+v", row, ev)
			continue
		}
		if !strings.Contains(err.Error(), "event feed:2: ") {
			t.Errorf("row %q: error %q lacks event feed:2 context", row, err)
		}
	}
	// The writer's own output still reads back.
	var buf bytes.Buffer
	w := NewEventWriter(&buf)
	w.Consume(&signaling.Event{User: 1 << 31, Day: -3, SecOfDay: -1, Sector: 255, Tower: 7, OK: true})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewEventReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := r.Read(); err != nil || ev.User != 1<<31 || ev.Sector != 255 || ev.Day != -3 {
		t.Errorf("writer output read back as %+v, %v", ev, err)
	}
}

// TestCSVReadersBareQuoteInFirstField pins a crash the event fuzzer
// found: a CSV parse error before any field of the row was read made
// the readers' line lookup (csv.Reader.FieldPos) panic. All three CSV
// readers must report it as a row error with its line instead.
func TestCSVReadersBareQuoteInFirstField(t *testing.T) {
	const row = "0\"000\n"
	tr, err := NewTraceReader(strings.NewReader(strings.Join(traceHeader, ",") + "\n" + row))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ReadDay(); err == nil || !strings.Contains(err.Error(), "trace feed:2: ") {
		t.Errorf("trace reader: %v", err)
	}
	kr, err := NewKPIReader(strings.NewReader(strings.Join(kpiHeader, ",") + "\n" + row))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := kr.ReadDay(); err == nil || !strings.Contains(err.Error(), "KPI feed:2: ") {
		t.Errorf("KPI reader: %v", err)
	}
	er, err := NewEventReader(strings.NewReader(strings.Join(eventHeader, ",") + "\n" + row))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := er.Read(); err == nil || !strings.Contains(err.Error(), "event feed:2: ") {
		t.Errorf("event reader: %v", err)
	}
}
