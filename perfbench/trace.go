package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer's epoch; Parent is the
// index of the enclosing span (-1 for a root); Op groups the spans of one
// operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes share the traced code path at the cost of a
// nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// newOp allocates an operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span now and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a completed span with explicit bounds, for intervals measured
// elsewhere (a request's due time, the stage durations RebuildStats
// returns) and returns its index.
func (t *tracer) record(name string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// startOf returns span i's start as wall time.
func (t *tracer) startOf(i int32) time.Time {
	if t == nil || i < 0 {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch.Add(time.Duration(t.spans[i].Start))
}

// endOf returns span i's end as wall time.
func (t *tracer) endOf(i int32) time.Time {
	if t == nil || i < 0 {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch.Add(time.Duration(t.spans[i].End))
}

// childTimes returns, per span, the summed duration of its children.
func (t *tracer) childTimes() []int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	return child
}

// layerStat aggregates one span name.
type layerStat struct {
	n     int
	total int64 // summed duration
	self  int64 // summed self time
}

// selfTimes returns, per span name, the call count, total duration and self
// time — a span's duration minus the part of it its children cover.
// It is only meaningful when children lie within their parent and do not
// overlap, which the sum check verifies.
func (t *tracer) selfTimes() map[string]*layerStat {
	child := t.childTimes()
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += s.dur() - child[i]
	}
	return out
}

// sumResult is the outcome of the sum check over one run's spans.
//
// By definition the self times of an operation's spans add up to its
// latency (self time is a span's duration minus its children's), so that
// equality is not checked. What can fail is the span layout the self times
// rest on: a child that starts before or ends after its parent, or two
// children of one parent that overlap, make some self time count twice or
// go negative. Derived spans — a rebuild's stages laid out from the
// durations RebuildStats reports, the rebuild itself on fuzz-prune — fail
// here when the engine reports more time than the call measured around it.
type sumResult struct {
	ops         int
	latency     int64 // summed operation latency
	unaccounted int64 // summed self time of the operation roots themselves
	outside     int   // spans not within their parent's bounds
	overlaps    int   // spans that start before their previous sibling ends
}

// sumTolerancePct is the stated tolerance of the sum check: the operation
// roots' own self time — benchmark glue between the timed calls — must stay
// within this share of the operations' summed latency.
const sumTolerancePct = 5.0

func (r sumResult) unaccountedPct() float64 {
	if r.latency == 0 {
		return 0
	}
	return 100 * float64(r.unaccounted) / float64(r.latency)
}

func (r sumResult) ok() bool {
	return r.ops > 0 && r.outside == 0 && r.overlaps == 0 && r.unaccountedPct() <= sumTolerancePct
}

func (r sumResult) String() string {
	verdict := "pass"
	if !r.ok() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: %d ops, latency %.3f ms, unaccounted %.3f ms (%.2f%%, tolerance %.0f%%), %d spans outside their parent, %d overlapping siblings",
		verdict, r.ops, float64(r.latency)/1e6, float64(r.unaccounted)/1e6,
		r.unaccountedPct(), sumTolerancePct, r.outside, r.overlaps)
}

// opRoots names the spans that are whole operations: one probe change
// until its image is committed, or one request.
var opRoots = map[string]bool{"prune.op": true, "churn.op": true, "serve.write": true, "serve.read": true}

// sumCheck checks that every span lies within its parent and that no two
// children of one parent overlap, and sums, over the operations rooted at
// spans named in roots, their latency and the roots' own self time.
func (t *tracer) sumCheck(roots map[string]bool) sumResult {
	var r sumResult
	child := t.childTimes()
	kids := map[int32][]int32{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				r.outside++
			}
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
		if roots[s.Name] {
			r.ops++
			r.latency += s.dur()
			r.unaccounted += s.dur() - child[i]
		}
	}
	for _, ks := range kids {
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		for k := 1; k < len(ks); k++ {
			if t.spans[ks[k]].Start < t.spans[ks[k-1]].End {
				r.overlaps++
			}
		}
	}
	return r
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
