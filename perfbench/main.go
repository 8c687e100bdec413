// Command perfbench is the repository's benchmark: it sets up the Figure 1
// star schema with 14 summary tables, runs one named workload against the
// engine's public entry points for a fixed time, checks every answer it
// samples, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its output. NOTES.md describes the
// workloads, the metrics and the layers they map to.
//
//	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"hot_reads", "adhoc_reads", "mixed_rw", "wire_reads"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	w := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measured busy time per client, in seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fl.String("root", ".", "repository root (for the source digest)")
	out := fl.String("out", ".bench_build", "directory for span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, k := range workloads {
		known = known || k == *w
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloads, ", "))
		return 2
	}

	facts := hostFacts(*root, *w, *seed, *seconds, *trace)
	printJSON(stdout, map[string]any{"host": facts})
	streams := map[string]string{"reads": streamHash(*w, *seed, 4096)}
	if *w != "mixed_rw" {
		h := sha256.New()
		digest(h, writeTailStream(*seed), tailCycles*writeCycle)
		streams["write_tail"] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	printJSON(stdout, map[string]any{"stream_sha256_first_4096": streams})

	o, err := runWorkload(context.Background(), *w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printJSON(stdout, map[string]any{"sent": map[string]any{"sha256": o.sent, "statements": o.sentN}})
	for _, f := range o.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}

	var metrics map[string]metric
	if *trace == 1 {
		metrics = o.layerMetrics()
		for _, line := range selfTable(selfTimesOf(o.spans, "read"), len(o.readsT)) {
			fmt.Fprintf(stdout, "read  %s\n", line)
		}
		for _, line := range selfTable(selfTimesOf(o.spans, "write"), len(o.writesT)) {
			fmt.Fprintf(stdout, "write %s\n", line)
		}
		if err := os.MkdirAll(filepath.Join(*out, "trace"), 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.tsv", *w, *seed))
		if err := writeSpans(path, o.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		metrics = o.endToEndMetrics()
		fmt.Fprintf(stdout, "samples: reads=%d writes=%d setups=%d slices=%d\n", len(o.reads), len(o.writes), len(o.setup), slices)
		printJSON(stdout, map[string]any{"wall_clock": o.wallClock()})
	}
	fmt.Fprintf(stdout, "fail_ratio: %d/%d = %g\n", o.failed, o.attempted, ratio(float64(o.failed), float64(o.attempted)))
	correct := o.failed == 0
	printJSON(stdout, map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if !correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perSec is a count over a busy time.
func perSec(n int, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return float64(n) / busy.Seconds()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics are the untraced numbers a user of the engine sees, timed
// on the process's CPU clock (see cpuTime): set-up time, per-operation time
// and operations per second of it. Medians and rates are the median over the
// phase's slices of the statistic within a slice; tail percentiles need every
// sample and use the whole phase.
func (o *outcome) endToEndMetrics() map[string]metric {
	writeCPU := o.writeCPU
	if o.mixedBusy {
		writeCPU = o.readCPU
	}
	return map[string]metric{
		"setup_s":          {median(o.setupCPU).Seconds(), "s"},
		"read_p50_cpu_ms":  {sliceMedian(o.reads, cpuOf, nil, p50MS), "ms"},
		"read_p99_cpu_ms":  {overall(o.reads, cpuOf, 0.99), "ms"},
		"reads_per_cpu_s":  {sliceMedian(o.reads, cpuOf, &o.readCPU, nil), "1/s"},
		"write_p50_cpu_ms": {sliceMedian(o.writes, cpuOf, nil, p50MS), "ms"},
		"write_p90_cpu_ms": {overall(o.writes, cpuOf, 0.90), "ms"},
		"writes_per_cpu_s": {sliceMedian(o.writes, cpuOf, &writeCPU, nil), "1/s"},
		"live_heap_mb":     {o.heapMB, "MB"},
	}
}

// wallClock is endToEndMetrics on the wall clock, printed beside the metrics:
// what a caller waited, moved by whatever else the host ran at the time.
func (o *outcome) wallClock() map[string]float64 {
	writeBusy := o.writeBusy
	if o.mixedBusy {
		writeBusy = o.readBusy
	}
	return map[string]float64{
		"setup_s":      median(o.setup).Seconds(),
		"read_p50_ms":  sliceMedian(o.reads, wallOf, nil, p50MS),
		"read_p99_ms":  overall(o.reads, wallOf, 0.99),
		"reads_per_s":  sliceMedian(o.reads, wallOf, &o.readBusy, nil),
		"write_p50_ms": sliceMedian(o.writes, wallOf, nil, p50MS),
		"write_p90_ms": overall(o.writes, wallOf, 0.90),
		"writes_per_s": sliceMedian(o.writes, wallOf, &writeBusy, nil),
	}
}

func p50MS(d []time.Duration) float64 { return ms(quantile(d, 0.5)) }

func cpuOf(s sample) time.Duration  { return s.cpu }
func wallOf(s sample) time.Duration { return s.lat }

// sliceMedian computes a statistic per slice over the times of picks and
// returns the median over the slices: with busy set, the slice's operations
// per second of busy time, otherwise stat of its times.
func sliceMedian(samples []sample, pick func(sample) time.Duration, busy *[slices]time.Duration,
	stat func([]time.Duration) float64) float64 {
	var per [slices][]time.Duration
	for _, s := range samples {
		per[s.slice] = append(per[s.slice], pick(s))
	}
	vals := make([]float64, 0, slices)
	for k := range per {
		if busy != nil {
			vals = append(vals, perSec(len(per[k]), busy[k]))
		} else {
			vals = append(vals, stat(per[k]))
		}
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// overall is the q-quantile of the times pick gives over every untraced
// sample of a phase.
func overall(samples []sample, pick func(sample) time.Duration, q float64) float64 {
	d := make([]time.Duration, len(samples))
	for i, s := range samples {
		d[i] = pick(s)
	}
	return ms(quantile(d, q))
}

// layerMetrics are the per-layer numbers of a traced run. Times named *_us
// are self time per traced operation of the kind that uses the layer (reads
// for the read path, writes for maintain), except plancache.lookup_us, which
// is per plan-cache hit.
func (o *outcome) layerMetrics() map[string]metric {
	l := o.layers
	rd := selfTimesOf(o.spans, "read")
	wr := selfTimesOf(o.spans, "write")
	nr := float64(max(len(o.readsT), 1))
	nw := float64(max(l.writes, 1))
	perRead := func(name string) float64 { return us(rd.self[name]) / nr }
	lookups := o.cacheHits + o.cacheMiss
	m := map[string]metric{
		"parser.parse_us":        {perRead("parser.parse"), "us"},
		"qgm.build_us":           {perRead("qgm.build"), "us"},
		"qgm.boxes_per_query":    {ratio(float64(l.boxes), float64(l.replays)), "count"},
		"core.prune_us":          {perRead("core.prune"), "us"},
		"core.prune_admit_ratio": {ratio(float64(l.admitted), float64(l.replays*len(summaryTables()))), "ratio"},
		"core.match_us":          {perRead("core.match"), "us"},
		"core.rewrite_accept_ratio": {
			ratio(float64(l.rewritten), float64(l.withCandidate)), "ratio"},
		"core.planned_queries":   {float64(l.replays), "count"},
		"plancache.lookup_us":    {ratio(us(l.hitTime), float64(l.hits)), "us"},
		"plancache.miss_self_us": {perRead("plancache.miss"), "us"},
		"plancache.hit_ratio":    {ratio(float64(o.cacheHits), float64(lookups)), "ratio"},
		"plancache.lookups":      {float64(lookups), "count"},
		"plancache.evictions":    {float64(o.evictions), "count"},
		"qgmcheck.check_us":      {us(rd.probes["qgmcheck.check"]) / nr, "us"},
		"exec.vectorized_us":     {perRead("exec.vectorized"), "us"},
		"exec.compiled_row_us":   {perRead("exec.compiled-row"), "us"},
		"exec.base_us":           {us(l.baseExec) / float64(max(l.reads, 1)), "us"},
		"exec.vectorized_share":  {ratio(float64(l.vectorized), float64(l.reads)), "ratio"},
		"exec.rows_scanned_per_row_out": {
			ratio(float64(l.rowsScanned), float64(l.rowsOut)), "ratio"},
		"exec.rewrite_speedup":          {o.rewriteSpeedup, "x"},
		"storage.ast_rows_per_base_row": {o.astRowsPerBase, "ratio"},
		"maintain.stmt_us":              {us(wr.self["maintain.stmt"]) / nw, "us"},
		"maintain.parse_build_us":       {us(wr.self["parser.parse"]+wr.self["qgm.build"]) / nw, "us"},
		"maintain.full_recompute_ratio": {ratio(float64(l.fullRecomputes), float64(l.refreshes)), "ratio"},
		"maintain.refreshes":            {float64(l.refreshes), "count"},
		"maintain.delta_rows_per_stmt":  {ratio(float64(l.deltaRows), float64(l.writes)), "count"},
		"maintain.asts_touched_per_stmt": {
			ratio(float64(l.touched), float64(l.writes)), "count"},
		"catalog.epoch_bumps_per_write": {ratio(float64(l.epochBumps), float64(l.writes)), "count"},
		"wire.encode_us":                {ratio(us(l.wireEncode), float64(l.wireOps)), "us"},
		"wire.decode_us":                {ratio(us(l.wireDecode), float64(l.wireOps)), "us"},
		"wire.bytes_per_row":            {ratio(float64(l.wireBytes), float64(l.wireRows)), "B"},
		"wire.overhead_us":              {ratio(us(l.wireOverhead), float64(l.wireOps)), "us"},
		"wire.stack_us":                 {perRead("wire.client"), "us"},
		"runtime.alloc_bytes_per_op":    {ratio(float64(o.allocBytes), float64(o.memOps)), "B"},
		"runtime.gc_pause_ms":           {ms(o.gcPause), "ms"},
		"runtime.gc_cycles":             {float64(o.gcCycles), "count"},
		"trace.reads":                   {float64(len(o.readsT)), "count"},
		"trace.writes":                  {float64(len(o.writesT)), "count"},
		"trace.read_p50_ms":             {ms(quantile(o.readsT, 0.5)), "ms"},
		"trace.read_overhead_ms":        {ms(quantile(o.readsT, 0.5)) - overall(o.reads, wallOf, 0.5), "ms"},
		"trace.write_p50_ms":            {ms(quantile(o.writesT, 0.5)), "ms"},
		"trace.write_overhead_ms":       {ms(quantile(o.writesT, 0.5)) - overall(o.writes, wallOf, 0.5), "ms"},
	}
	return m
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, numbers and strings are marshalled
	}
	fmt.Fprintln(w, string(b))
}

// hostFacts records where and on what a run happened.
func hostFacts(root, w string, seed int64, seconds, trace int) map[string]any {
	commit := "unknown"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cores":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
		"scale":         scale,
		"data_seed":     dataSeed,
		"workload":      w,
		"workload_seed": seed,
		"seconds":       seconds,
		"trace":         trace,
	}
}

// sourceDigest hashes the module's Go sources and go.mod files, so a run from
// a checkout that is not a git repository still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
