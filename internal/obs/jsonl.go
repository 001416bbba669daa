package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// JSONL writes one JSON object per event, one per line — the common
// interchange format for trace tooling (jq, DuckDB, pandas). Safe for
// concurrent use; output is buffered until Close.
type JSONL struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	owned io.Closer // closed by Close when the sink opened the file itself
	err   error     // first write error, reported by Close
}

// NewJSONL returns a JSONL sink writing to w. The caller keeps
// ownership of w; Close flushes but does not close it.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// CreateJSONL creates (truncating) the named file and returns a sink
// that owns it: Close flushes and closes the file.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewJSONL(f)
	s.owned = f
	return s, nil
}

// Observe encodes the event as one JSON line. Write errors are sticky
// and surface from Close.
func (s *JSONL) Observe(e Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
	s.mu.Unlock()
}

// Close flushes, closes the file if the sink owns one, and reports the
// first error encountered over the sink's lifetime.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.owned != nil {
		if cerr := s.owned.Close(); s.err == nil {
			s.err = cerr
		}
		s.owned = nil
	}
	return s.err
}
