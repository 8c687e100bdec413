package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// setupReps is how many times a run sets up; setup_s is their median and
// the last set-up is the one measured.
const setupReps = 5

// checkEvery samples one read in checkEvery for a base-plan check on the
// workloads whose texts have no precomputed answer (adhoc_reads, mixed_rw).
const checkEvery = 8

// tailCycles is the length, in write cycles, of the write-only phase that
// ends each read-only workload. Every workload reports every end-to-end
// metric, so read-only workloads measure their writes here, after the reads,
// where they cannot disturb the read numbers.
const tailCycles = 12

// slices splits each measured phase into equal parts of busy time; the
// end-to-end metrics are medians over the slices, so a burst of load from
// outside the process moves at most one or two of them.
const slices = 5

// sample is one untraced operation: its wall-clock latency, the process CPU
// time it took, and its slice.
type sample struct {
	lat, cpu time.Duration
	slice    int
}

// outcome is everything one run measured.
type outcome struct {
	workload string
	setup    []time.Duration // wall clock
	setupCPU []time.Duration
	heapMB   float64

	// Latencies of untraced and traced operations. In a traced run the first
	// half of each phase is untraced and the second half traced. Untraced
	// operations carry the slice of their phase they fell in.
	reads, writes   []sample
	readsT, writesT []time.Duration
	readBusy        [slices]time.Duration // per slice
	writeBusy       [slices]time.Duration
	readCPU         [slices]time.Duration // CPU time of the operations, per slice
	writeCPU        [slices]time.Duration
	mixedBusy       bool // reads and writes share one busy time (mixed_rw)

	attempted, failed int
	failures          []string

	layers     layerCounts
	spans      []span
	cacheHits  int64
	cacheMiss  int64
	evictions  int64
	allocBytes uint64 // runtime counters over memOps operations of the read phase
	gcPause    time.Duration
	gcCycles   uint32
	memOps     int

	rewriteSpeedup float64
	astRowsPerBase float64
	sent           string // digest of the statements actually sent
	sentN          int
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload sets up, measures one workload and checks its answers.
func runWorkload(ctx context.Context, w string, seed int64, seconds time.Duration, traced bool) (*outcome, error) {
	o := &outcome{workload: w}
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up: %w", err)
			}
			e = nil
		}
		runtime.GC()
		start, cpu0 := time.Now(), cpuTime()
		var err error
		e, err = setUp(ctx, w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start))
		o.setupCPU = append(o.setupCPU, cpuTime()-cpu0)
	}
	defer e.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	// Reference answers: the suite's base plans on the set-up store.
	var refs [][][]sqltypes.Value
	if w == "hot_reads" || w == "wire_reads" {
		for _, q := range suiteSQL {
			rows, err := baseAnswer(ctx, e.db, q)
			if err != nil {
				return nil, fmt.Errorf("reference answer: %w", err)
			}
			refs = append(refs, rows)
		}
	}
	if traced {
		if err := o.measureSpeedup(ctx, e); err != nil {
			return nil, err
		}
	}

	c := newClient(e.db, e.conn, time.Now())
	h0, m0, ev0 := e.cacheStats()
	o.readPhase(ctx, e, c, refs, seed, seconds, traced)
	h1, m1, ev1 := e.cacheStats()
	o.cacheHits, o.cacheMiss, o.evictions = h1-h0, m1-m0, ev1-ev0
	if w != "mixed_rw" {
		o.writeTail(ctx, c, seed, traced)
	}
	o.finalCheck(ctx, e)
	o.astRowsPerBase = astRowsPerBaseRow(e)
	o.layers = c.layers
	o.spans = c.tr.spans
	return o, nil
}

func (e *env) cacheStats() (hits, misses, evictions int64) {
	pc := e.db.PlanCache()
	hits, misses = pc.Stats()
	return hits, misses, pc.Evictions()
}

// readPhase runs the client's closed loop until its busy time reaches the
// run length. Busy time is the sum of the operations' wall-clock latencies;
// the answer checks between operations are not in it. The process CPU time
// read around each operation is its own because nothing else runs meanwhile.
func (o *outcome) readPhase(ctx context.Context, e *env, c *client, refs [][][]sqltypes.Value,
	seed int64, seconds time.Duration, traced bool) {
	// The runtime counters cover the untraced half of a traced run.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	sent := sha256.New()
	next := streamFor(o.workload, seed)
	checks := subRNG(seed, rngChecks)
	var busy time.Duration
	for busy < seconds {
		tracing := traced && busy >= seconds/2
		if tracing && len(o.readsT)+len(o.writesT) == 0 {
			runtime.ReadMemStats(&mem1)
		}
		slice := min(int(busy*slices/seconds), slices-1)
		s := next()
		fmt.Fprintf(sent, "%s\t%s\n", s.kind, s.sql)
		o.sentN++
		o.attempted++
		if s.kind != kindRead {
			cpu0 := cpuTime()
			n, lat, err := c.write(ctx, s, tracing)
			cpu := cpuTime() - cpu0
			busy += lat
			o.readBusy[slice] += lat
			if tracing {
				o.writesT = append(o.writesT, lat)
			} else {
				o.readCPU[slice] += cpu
				o.writes = append(o.writes, sample{lat, cpu, slice})
			}
			if err != nil {
				o.fail("%s: %v", s.sql, err)
			} else if n < 1 {
				o.fail("%s: affected %d rows", s.sql, n)
			}
			continue
		}
		cpu0 := cpuTime()
		ans, lat, err := c.read(ctx, s.sql, tracing)
		cpu := cpuTime() - cpu0
		busy += lat
		o.readBusy[slice] += lat
		if tracing {
			o.readsT = append(o.readsT, lat)
		} else {
			o.readCPU[slice] += cpu
			o.reads = append(o.reads, sample{lat, cpu, slice})
		}
		if err != nil {
			o.fail("%s: %v", s.sql, err)
			continue
		}
		var want [][]sqltypes.Value
		switch {
		case refs != nil:
			want = refs[s.ref]
		case checks.Intn(checkEvery) == 0:
			want, err = baseAnswer(ctx, e.db, s.sql)
			if err != nil {
				o.fail("base plan for %s: %v", s.sql, err)
				continue
			}
		default:
			continue
		}
		if d := sameRows(ans.rows, want); d != "" {
			o.fail("wrong answer (%s) for %s", d, s.sql)
		}
	}
	if len(o.readsT)+len(o.writesT) == 0 {
		runtime.ReadMemStats(&mem1)
	}
	o.sent = hex.EncodeToString(sent.Sum(nil))[:16]
	o.mixedBusy = o.workload == "mixed_rw"
	o.memOps = len(o.reads) + len(o.writes)
	o.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	o.gcPause = time.Duration(mem1.PauseTotalNs - mem0.PauseTotalNs)
	o.gcCycles = mem1.NumGC - mem0.NumGC
}

// writeTail is the write-only phase of the read-only workloads: tailCycles
// cycles of the mixed_rw write stream, through the workload's own client
// (database/sql for wire_reads).
func (o *outcome) writeTail(ctx context.Context, c *client, seed int64, traced bool) {
	next := writeTailStream(seed)
	n := tailCycles * writeCycle
	for i := 0; i < n; i++ {
		s := next()
		tracing := traced && i >= n/2
		slice := i * slices / n
		o.attempted++
		cpu0 := cpuTime()
		affected, lat, err := c.write(ctx, s, tracing)
		cpu := cpuTime() - cpu0
		o.writeBusy[slice] += lat
		if tracing {
			o.writesT = append(o.writesT, lat)
		} else {
			o.writeCPU[slice] += cpu
			o.writes = append(o.writes, sample{lat, cpu, slice})
		}
		if err != nil {
			o.fail("%s: %v", s.sql, err)
		} else if affected < 1 {
			o.fail("%s: affected %d rows", s.sql, affected)
		}
	}
}

// finalCheck compares every suite statement's answer with its base plan on
// the final store, after all writes: a summary table that maintenance left
// wrong shows here even if no sampled read hit it.
func (o *outcome) finalCheck(ctx context.Context, e *env) {
	for _, q := range suiteSQL {
		o.attempted++
		a, err := e.db.Query(ctx, q)
		if err != nil {
			o.fail("final check %s: %v", q, err)
			continue
		}
		want, err := baseAnswer(ctx, e.db, q)
		if err != nil {
			o.fail("final check base plan %s: %v", q, err)
			continue
		}
		if d := sameRows(a.Result.Rows, want); d != "" {
			o.fail("final check: wrong answer (%s) for %s", d, q)
		}
	}
}

// measureSpeedup re-measures the paper's headline on today's engine: for each
// suite statement a summary table serves, its base plan's execution time over
// its rewritten plan's, each the median of five alternating runs. The result
// is their geometric mean.
func (o *outcome) measureSpeedup(ctx context.Context, e *env) error {
	const reps = 5
	logSum, n := 0.0, 0
	for _, q := range suiteSQL {
		rw, err := e.db.Rewrite(ctx, q)
		if err != nil {
			return fmt.Errorf("rewrite: %w", err)
		}
		if rw.AST == "" {
			continue
		}
		base, err := qgm.BuildSQL(q, e.db.Catalog())
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		var tb, tr []time.Duration
		for i := 0; i < reps; i++ {
			for _, p := range []struct {
				g   *qgm.Graph
				out *[]time.Duration
			}{{base, &tb}, {rw.Plan, &tr}} {
				start := time.Now()
				if _, err := e.db.Execute(ctx, p.g); err != nil {
					return fmt.Errorf("execute: %w", err)
				}
				*p.out = append(*p.out, time.Since(start))
			}
		}
		logSum += math.Log(float64(median(tb)) / float64(median(tr)))
		n++
	}
	if n > 0 {
		o.rewriteSpeedup = math.Exp(logSum / float64(n))
	}
	return nil
}

// astRowsPerBaseRow is the summary tables' stored rows per base-table row.
func astRowsPerBaseRow(e *env) float64 {
	store := e.db.Store()
	var ast, base int
	for _, t := range summaryTables() {
		ast += store.TableRows(t.name)
	}
	for _, t := range []string{"trans", "loc", "acct", "cust", "pgroup"} {
		base += store.TableRows(t)
	}
	return float64(ast) / float64(base)
}

// median of durations (0 for none).
func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// quantile is the nearest-rank q-quantile of durations (0 for none).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}
