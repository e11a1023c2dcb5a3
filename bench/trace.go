package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// noParent is the Parent of an op's root span.
const noParent = -1

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op share Op (warm-up ops
// have negative Op values); Parent is the ID of the enclosing span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	counts

	startAllocs, startBytes int64
}

// counts are the work counters recorded at a span's boundary. Allocs
// and AllocBytes are process-wide heap-allocation deltas over the span,
// so spans running concurrently (the sweep pool) see each other's.
type counts struct {
	Allocs      int64 `json:"allocs,omitempty"`
	AllocBytes  int64 `json:"alloc_bytes,omitempty"`
	Pkts        int   `json:"pkts,omitempty"`
	Hops        int   `json:"hops,omitempty"`
	Rounds      int   `json:"rounds,omitempty"`
	Delivered   int   `json:"delivered,omitempty"`
	Merges      int   `json:"merges,omitempty"`
	Retransmits int   `json:"retransmits,omitempty"`
	Rehashes    int   `json:"rehashes,omitempty"`
	Nodes       int   `json:"nodes,omitempty"`
	TableBytes  int64 `json:"table_bytes,omitempty"`
	ArenaBytes  int64 `json:"arena_bytes,omitempty"`
	Hashed      bool  `json:"hashed,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method returns at once.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		base: time.Now(),
		sample: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

// allocs reads the cumulative heap-allocation counters. runtime/metrics
// does not stop the world, unlike runtime.ReadMemStats. Callers hold mu.
func (t *tracer) allocs() (objects, bytes int64) {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64()), int64(t.sample[1].Value.Uint64())
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	objects, bytes := t.allocs()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Op: op, ID: id, Parent: parent,
		Start:       time.Since(t.base).Nanoseconds(),
		startAllocs: objects, startBytes: bytes,
	})
	return id
}

// end closes span id and records the counters observed at its boundary.
func (t *tracer) end(id int, c counts) {
	if t == nil {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	objects, bytes := t.allocs()
	s := &t.spans[id]
	s.End = now
	c.Allocs = objects - s.startAllocs
	c.AllocBytes = bytes - s.startBytes
	s.counts = c
}

// write stores the spans as JSONL at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the union
// of the intervals its direct children cover, clipped to the span. A
// span whose parent is not among spans is a root. Unfinished spans (an
// op that panicked) have no duration and are skipped as children.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		self[s.ID] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		start, end := max(iv[0], cur), min(iv[1], hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}
