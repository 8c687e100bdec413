package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// The tracer records spans from the benchmark's own files, around its calls
// into each layer's public functions. Spans stay in memory and are written
// out when the run ends.
//
// Two span flags tie layer times to the operation they explain:
//
//   - attr marks an attribution span: a timed re-execution of work that a
//     library call already did inside its parent span, run right after the
//     operation because the work cannot be timed from outside while it runs
//     (the parse, build, prune and match inside a plan-cache miss, the parse
//     and build inside a DML call, the in-process query and codec inside a
//     wire round trip). Its duration is subtracted from its parent's self
//     time and counted in its own layer, so the layers of an operation still
//     sum to the operation's measured latency.
//   - probe marks an off-path measurement (qgmcheck on the chosen plan). A
//     probe and everything under it is left out of every self-time sum.
//
// A span's self time is its duration minus the durations of its non-probe
// children.

const (
	flagAttr uint8 = 1 << iota
	flagProbe
)

type span struct {
	name       string
	op         int32
	parent     int32 // index into tracer.spans; -1 for an operation root
	flags      uint8
	start, end time.Duration // since the tracer's origin
}

// tracer is owned by one client goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	op     int32
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

// root starts the span of a new operation.
func (t *tracer) root(name string) int32 {
	t.op++
	return t.begin(name, -1, 0)
}

func (t *tracer) begin(name string, parent int32, flags uint8) int32 {
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, flags: flags,
		start: time.Since(t.origin)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) time.Duration {
	s := &t.spans[i]
	s.end = time.Since(t.origin)
	return s.end - s.start
}

// rename sets a span's name once its outcome is known (a plan-cache hit or
// miss, the execution mode).
func (t *tracer) rename(i int32, name string) { t.spans[i].name = name }

// layerTimes is the self time per span name over a set of spans, probes
// excluded, plus the probe time per probe name.
type layerTimes struct {
	self   map[string]time.Duration
	probes map[string]time.Duration
	total  time.Duration // sum of self over all non-probe spans
}

func selfTimes(spans []span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, probes: map[string]time.Duration{}}
	self := make([]time.Duration, len(spans))
	inProbe := make([]bool, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		inProbe[i] = s.flags&flagProbe != 0 || (s.parent >= 0 && inProbe[s.parent])
	}
	for _, s := range spans {
		if s.parent >= 0 && s.flags&flagProbe == 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range spans {
		if s.flags&flagProbe != 0 {
			lt.probes[s.name] += s.end - s.start
		}
		if inProbe[i] {
			continue
		}
		lt.self[s.name] += self[i]
		lt.total += self[i]
	}
	return lt
}

// selfTimesOf is selfTimes over the operations whose root span has the
// given name.
func selfTimesOf(spans []span, rootName string) layerTimes {
	var keep []span
	rootOf := make([]int32, len(spans))
	remap := make([]int32, len(spans))
	for i, s := range spans {
		if s.parent < 0 {
			rootOf[i] = int32(i)
		} else {
			rootOf[i] = rootOf[s.parent]
		}
		if spans[rootOf[i]].name != rootName {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(keep))
		if s.parent >= 0 {
			s.parent = remap[s.parent]
		}
		keep = append(keep, s)
	}
	return selfTimes(keep)
}

// writeSpans writes the spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tidx\tparent\tname\tattr\tprobe\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%t\t%t\t%d\t%d\n", s.op, i, s.parent, s.name,
			s.flags&flagAttr != 0, s.flags&flagProbe != 0, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the per-layer self times as report lines, largest first.
func selfTable(lt layerTimes, ops int) []string {
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-22s self %10.1f us/op  %5.1f%%", n,
			float64(lt.self[n].Microseconds())/float64(max(ops, 1)),
			100*float64(lt.self[n])/float64(max(int64(lt.total), 1))))
	}
	for n, d := range lt.probes {
		out = append(out, fmt.Sprintf("%-22s probe %9.1f us/op  (excluded)", n,
			float64(d.Microseconds())/float64(max(ops, 1))))
	}
	return out
}
