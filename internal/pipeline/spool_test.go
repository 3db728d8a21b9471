package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// spoolTestRecord builds a distinguishable record so FIFO violations are
// attributable to a specific position.
func spoolTestRecord(i int) dataset.Record {
	return dataset.Record{
		ID: fmt.Sprintf("rec-%06d", i),
		Fields: []dataset.Field{
			{Name: "seq", Value: fmt.Sprintf("%d", i)},
			{Name: "payload", Value: fmt.Sprintf("value for record %d", i)},
		},
	}
}

// drainSpool pops every record, checking FIFO order against the append
// sequence and that Len counts down correctly.
func drainSpool(t *testing.T, s *recordSpool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := s.Len(); got != n-i {
			t.Fatalf("Len() = %d before pop %d of %d, want %d", got, i, n, n-i)
		}
		r, ok, err := s.Pop()
		if err != nil {
			t.Fatalf("Pop %d of %d: %v", i, n, err)
		}
		if !ok {
			t.Fatalf("Pop %d of %d: spool empty early", i, n)
		}
		want := spoolTestRecord(i)
		if r.ID != want.ID {
			t.Fatalf("pop %d returned %q, want %q (FIFO order broken)", i, r.ID, want.ID)
		}
		if len(r.Fields) != len(want.Fields) {
			t.Fatalf("pop %d returned %d fields, want %d", i, len(r.Fields), len(want.Fields))
		}
		for j, f := range r.Fields {
			if f != want.Fields[j] {
				t.Fatalf("pop %d field %d = %+v, want %+v", i, j, f, want.Fields[j])
			}
		}
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len() = %d after draining, want 0", got)
	}
	if _, ok, err := s.Pop(); err != nil || ok {
		t.Fatalf("Pop on drained spool = (ok %v, err %v), want (false, nil)", ok, err)
	}
}

// countSpoolFiles counts pipeline-spool spill files visible in the temp
// directory. The spool unlinks its spill file the moment it is created,
// so the count should be zero even while a spilled spool is live.
func countSpoolFiles(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "pipeline-spool-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestSpoolSpillBoundary exercises record counts straddling the
// in-memory cap: empty, one short of the cap, exactly at it, one past
// it (first spilled record), and far past it. Every count must replay
// in FIFO order and leave no spill file behind.
func TestSpoolSpillBoundary(t *testing.T) {
	for _, n := range []int{0, 1023, 1024, 1025, 4096} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := newRecordSpool(spoolMemRecords)
			for i := 0; i < n; i++ {
				if err := s.Append(spoolTestRecord(i)); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
			}
			if got := countSpoolFiles(t); got != 0 {
				t.Fatalf("%d spill files visible in temp dir while spool is live, want 0 (spill must be unlinked at creation)", got)
			}
			drainSpool(t, s, n)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := countSpoolFiles(t); got != 0 {
				t.Fatalf("%d spill files left in temp dir after Close, want 0", got)
			}
		})
	}
}

// TestSpoolCloseWithoutDrain pins that Close releases the spill handle
// even when spilled records were never replayed — the cancellation path.
func TestSpoolCloseWithoutDrain(t *testing.T) {
	s := newRecordSpool(4)
	for i := 0; i < 10; i++ {
		if err := s.Append(spoolTestRecord(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close with 6 undrained spilled records: %v", err)
	}
	if got := countSpoolFiles(t); got != 0 {
		t.Fatalf("%d spill files left after abandoning a spilled spool, want 0", got)
	}
	// Close is idempotent once the handle is released.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSpoolDefaultCap pins that a non-positive cap falls back to the
// package constant rather than spilling every record.
func TestSpoolDefaultCap(t *testing.T) {
	for _, cap := range []int{0, -3} {
		s := newRecordSpool(cap)
		if s.memCap != spoolMemRecords {
			t.Fatalf("newRecordSpool(%d).memCap = %d, want %d", cap, s.memCap, spoolMemRecords)
		}
	}
}

// FuzzSpoolFIFO drives arbitrary record counts and memory caps through
// the append-then-drain lifecycle. The invariants: records replay in
// exact FIFO order with fields intact, Len tracks the backlog, and no
// spill file survives Close. Seeds pin the spill boundary; the fuzzer
// explores everything else. Run with: go test -fuzz FuzzSpoolFIFO ./internal/pipeline/
func FuzzSpoolFIFO(f *testing.F) {
	f.Add(uint16(0), uint16(8))
	f.Add(uint16(1023), uint16(1024))
	f.Add(uint16(1024), uint16(1024))
	f.Add(uint16(1025), uint16(1024))
	f.Add(uint16(100), uint16(0)) // non-positive cap falls back to the default
	f.Add(uint16(7), uint16(1))
	f.Fuzz(func(t *testing.T, nRaw, capRaw uint16) {
		n := int(nRaw % 2048) // keep disk traffic bounded per exec
		memCap := int(capRaw % 2048)
		s := newRecordSpool(memCap)
		defer s.Close()
		for i := 0; i < n; i++ {
			if err := s.Append(spoolTestRecord(i)); err != nil {
				t.Fatalf("Append %d (cap %d): %v", i, memCap, err)
			}
		}
		if got := s.Len(); got != n {
			t.Fatalf("Len() = %d after %d appends (cap %d), want %d", got, n, memCap, n)
		}
		drainSpool(t, s, n)
		if err := s.Close(); err != nil {
			t.Fatalf("Close (cap %d): %v", memCap, err)
		}
	})
}

// TestSpoolChunkBoundaries pins that the spool replays chunks with the
// boundaries they were appended with, across the memory/disk boundary:
// where the overlap path's spool/live split falls must not move one.
func TestSpoolChunkBoundaries(t *testing.T) {
	s := newRecordSpool(4)
	defer s.Close()
	sizes := []int{3, 1, 4, 1, 5}
	next := 0
	for _, n := range sizes {
		var chunk []dataset.Record
		for i := 0; i < n; i++ {
			chunk = append(chunk, spoolTestRecord(next))
			next++
		}
		if err := s.AppendChunk(chunk); err != nil {
			t.Fatalf("AppendChunk: %v", err)
		}
	}
	next = 0
	for i, n := range sizes {
		chunk, ok, err := s.PopChunk()
		if err != nil || !ok {
			t.Fatalf("PopChunk %d = (ok %v, err %v), want a chunk", i, ok, err)
		}
		if len(chunk) != n {
			t.Fatalf("chunk %d has %d records, want %d", i, len(chunk), n)
		}
		for _, r := range chunk {
			if want := spoolTestRecord(next).ID; r.ID != want {
				t.Fatalf("chunk %d returned %q, want %q", i, r.ID, want)
			}
			next++
		}
	}
	if _, ok, err := s.PopChunk(); ok || err != nil {
		t.Fatalf("PopChunk on a drained spool = (ok %v, err %v), want (false, nil)", ok, err)
	}
}
