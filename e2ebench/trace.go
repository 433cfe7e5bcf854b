package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed layer call recorded by the benchmark around a call into
// the library. Spans of one operation (a nest's pipeline or a fault event)
// share op; parent is the span that caused this one (0 for a root).
type span struct {
	id, parent, op int64
	name           string
	// tag splits a layer by caller ("optimized", "repair", ...).
	tag        string
	start, end time.Duration
	// alloc is the bytes the process allocated while the span was open.
	alloc uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code path is the same
// call sequence either way.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// heapAllocs reads the cumulative bytes allocated on the heap without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span and returns its id with the function that closes it.
func (t *tracer) begin(name, tag string, parent, op int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch)
	a0 := heapAllocs()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		alloc := heapAllocs() - a0
		t.mu.Lock()
		t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, tag: tag, start: start, end: end, alloc: alloc})
		t.mu.Unlock()
	}
}

// layerTimes is the busy time, self time, call count and allocated bytes per
// layer key: the span name, and the span name with its tag appended when the
// span has one. Only layer spans count; their names hold a dot
// ("core.Partition"), the per-operation root spans ("nest", "event") do not.
type layerTimes struct {
	busy, self map[string]time.Duration
	calls      map[string]int
	alloc      map[string]uint64
}

// times folds the spans recorded in [from, to) of the run's clock into busy
// and self time per layer. Self time is the span's duration minus the part
// of it that its children cover.
func (t *tracer) times(from, to time.Duration) layerTimes {
	lt := layerTimes{busy: map[string]time.Duration{}, self: map[string]time.Duration{}, calls: map[string]int{}, alloc: map[string]uint64{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range t.spans {
		if s.start < from || s.end > to || !strings.Contains(s.name, ".") {
			continue
		}
		d := s.end - s.start
		self := d - covered(s, children[s.id])
		keys := []string{s.name}
		if s.tag != "" {
			keys = append(keys, s.name+"."+s.tag)
		}
		for _, k := range keys {
			lt.busy[k] += d
			lt.self[k] += self
			lt.calls[k]++
			lt.alloc[k] += s.alloc
		}
	}
	return lt
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curE {
			total += max(curE-curS, 0)
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + max(curE-curS, 0)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON; meta lands in
// otherData (seed, workload, machine identity).
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		cat := strings.SplitN(s.name, ".", 2)[0]
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"span": s.id, "parent": s.parent, "op": s.op, "tag": s.tag},
		})
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayerTable prints the per-layer table: busy and self seconds, calls,
// and every counter, all per pass.
func writeLayerTable(w io.Writer, workload string, lt layerTimes, counters map[string]float64) {
	fmt.Fprintf(w, "# per-layer table, %s (per pass)\n", workload)
	fmt.Fprintf(w, "# %-34s %10s %10s %8s\n", "layer", "busy_s", "self_s", "calls")
	keys := make([]string, 0, len(lt.busy))
	for k := range lt.busy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %-34s %10.4f %10.4f %8d\n", k,
			lt.busy[k].Seconds(), lt.self[k].Seconds(), lt.calls[k])
	}
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-34s %g\n", k, counters[k])
	}
}
