package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/dataset"
)

// spoolMemRecords is how many buffered records a spool holds in memory
// before overflowing to disk. Side-input overlap buffers the main input
// only while the side stage materializes, so most runs never spill.
const spoolMemRecords = 1024

// recordSpool is a FIFO buffer for the side-input overlap path: chunks
// append while the side stage is still materializing, then replay in
// arrival order once it finishes, each with the boundaries it arrived
// with. The first memCap records stay in an in-memory ring; overflow
// spills to an unlinked temp file as JSON lines, so an arbitrarily large
// buffered stream costs bounded memory. Append and replay phases do not
// interleave: the executor appends until the side stage completes, then
// drains. A spool is owned by one goroutine.
type recordSpool struct {
	memCap int
	ring   []dataset.Record
	head   int   // next record to pop from ring
	lens   []int // lengths of the chunks not yet popped, oldest first

	spill   *os.File
	w       *bufio.Writer
	r       *bufio.Scanner
	spilled int
}

func newRecordSpool(memCap int) *recordSpool {
	if memCap <= 0 {
		memCap = spoolMemRecords
	}
	return &recordSpool{memCap: memCap}
}

// spoolRecord is the spill-file serialization of one record.
type spoolRecord struct {
	ID     string   `json:"id"`
	Names  []string `json:"names"`
	Values []string `json:"values"`
}

// Append buffers one record, spilling to disk past the memory cap.
func (s *recordSpool) Append(r dataset.Record) error {
	if len(s.ring) < s.memCap {
		s.ring = append(s.ring, r)
		return nil
	}
	if s.spill == nil {
		f, err := os.CreateTemp("", "pipeline-spool-*.jsonl")
		if err != nil {
			return fmt.Errorf("spool: %w", err)
		}
		// Unlink immediately: the file lives as long as the handle, and a
		// crashed run leaves nothing behind.
		os.Remove(f.Name())
		s.spill = f
		s.w = bufio.NewWriter(f)
	}
	sr := spoolRecord{ID: r.ID}
	for _, f := range r.Fields {
		sr.Names = append(sr.Names, f.Name)
		sr.Values = append(sr.Values, f.Value)
	}
	line, err := json.Marshal(sr)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	s.spilled++
	return nil
}

// AppendChunk buffers one chunk and remembers its boundary.
func (s *recordSpool) AppendChunk(chunk []dataset.Record) error {
	for _, r := range chunk {
		if err := s.Append(r); err != nil {
			return err
		}
	}
	s.lens = append(s.lens, len(chunk))
	return nil
}

// PopChunk returns the oldest chunk appended by AppendChunk, with the
// records it was appended with; ok is false when no chunk remains.
func (s *recordSpool) PopChunk() ([]dataset.Record, bool, error) {
	if len(s.lens) == 0 {
		return nil, false, nil
	}
	chunk := make([]dataset.Record, s.lens[0])
	s.lens = s.lens[1:]
	for i := range chunk {
		// lens sums to Len(), so Pop cannot run dry inside a chunk.
		r, _, err := s.Pop()
		if err != nil {
			return nil, false, err
		}
		chunk[i] = r
	}
	return chunk, true, nil
}

// Len returns how many records are buffered and not yet popped.
func (s *recordSpool) Len() int {
	return len(s.ring) - s.head + s.spilled
}

// Pop returns the oldest buffered record in FIFO order; ok is false when
// the spool is empty. The in-memory ring drains first (it holds the
// oldest records), then the spill file replays sequentially.
func (s *recordSpool) Pop() (dataset.Record, bool, error) {
	if s.head < len(s.ring) {
		r := s.ring[s.head]
		s.ring[s.head] = dataset.Record{} // release for GC
		s.head++
		return r, true, nil
	}
	if s.spilled == 0 {
		return dataset.Record{}, false, nil
	}
	if s.r == nil {
		if err := s.w.Flush(); err != nil {
			return dataset.Record{}, false, fmt.Errorf("spool: %w", err)
		}
		if _, err := s.spill.Seek(0, 0); err != nil {
			return dataset.Record{}, false, fmt.Errorf("spool: %w", err)
		}
		s.r = bufio.NewScanner(s.spill)
		s.r.Buffer(make([]byte, 64*1024), 16*1024*1024)
	}
	if !s.r.Scan() {
		if err := s.r.Err(); err != nil {
			return dataset.Record{}, false, fmt.Errorf("spool: %w", err)
		}
		return dataset.Record{}, false, fmt.Errorf("spool: spill file truncated (%d records unread)", s.spilled)
	}
	var sr spoolRecord
	if err := json.Unmarshal(s.r.Bytes(), &sr); err != nil {
		return dataset.Record{}, false, fmt.Errorf("spool: %w", err)
	}
	s.spilled--
	rec := dataset.Record{ID: sr.ID}
	for i := range sr.Names {
		rec.Fields = append(rec.Fields, dataset.Field{Name: sr.Names[i], Value: sr.Values[i]})
	}
	return rec, true, nil
}

// Close releases the spill file, if any.
func (s *recordSpool) Close() error {
	if s.spill == nil {
		return nil
	}
	err := s.spill.Close()
	s.spill, s.w, s.r = nil, nil, nil
	return err
}
