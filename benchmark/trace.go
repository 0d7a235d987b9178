package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval at a boundary the benchmark can see from outside
// the program: a pass, a cell, a device round, one fleet request, one
// micro-probe. Spans of one cell or device share Group; Parent is the ID
// of the span that caused this one (0 for a root).
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Group   string            `json:"group,omitempty"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them out once, when the run
// ends. A nil *tracer records nothing, so the untraced run pays a nil
// check and no more.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent int, group, name string, start, end time.Time, attrs map[string]string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Group: group, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// open reserves an ID for a span whose children finish before it does
// (a pass, a device round); close it with the returned func.
func (t *tracer) open(parent int, group, name string, attrs map[string]string) (id int, done func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Attrs: attrs,
		StartNS: start.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = end
		t.mu.Unlock()
	}
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
