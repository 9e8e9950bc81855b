package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request (or
// one set-up, or one offline call) share an ID; Parent names the span
// of the same ID that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so timed code paths carry
// no tracing work at all.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(id uint64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Name: name, Parent: parent, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// since returns the spans recorded after the first n.
func (t *tracer) since(n int) []span {
	all := t.snapshot()
	if n > len(all) {
		n = len(all)
	}
	return all[n:]
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfRow is one span name's aggregate in the self-time table.
type selfRow struct {
	name         string
	count        int
	total, self  time.Duration
	durs, selves []float64 // per span, ms
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its child spans (same
// ID, Parent equal to its name) cover.
func selfTimes(spans []span) map[string]*selfRow {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.ID] = append(children[s.ID], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		d := time.Duration(s.End - s.Start)
		self := d - time.Duration(covered)
		r.count++
		r.total += d
		r.self += self
		r.durs = append(r.durs, float64(d)/1e6)
		r.selves = append(r.selves, float64(self)/1e6)
	}
	return rows
}

// coveredNs is the length of the union of the children's intervals
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	var iv [][2]int64
	for _, k := range kids {
		if k.Parent != parent.Name {
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, -1 << 62
	for _, r := range iv {
		if r[0] > end {
			total += r[1] - r[0]
			end = r[1]
		} else if r[1] > end {
			total += r[1] - end
			end = r[1]
		}
	}
	return total
}

// writeSelfTable prints the per-span-name self-time table, largest self
// time first.
func writeSelfTable(w io.Writer, rows map[string]*selfRow) {
	list := make([]*selfRow, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-36s %8s %12s %12s %12s\n", "span (layer.call)", "count", "total_ms", "self_ms", "self_p50_us")
	for _, r := range list {
		fmt.Fprintf(w, "%-36s %8d %12.3f %12.3f %12.2f\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6, 1000*median(r.selves))
	}
}

// writeSpanFile writes every span as one JSON document.
func writeSpanFile(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
