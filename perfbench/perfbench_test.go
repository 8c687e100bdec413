package main

import (
	"context"
	"testing"
	"time"
)

func TestStreamsAreFixedBySeed(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(w, 42, 2000)
		if b := streamHash(w, 42, 2000); a != b {
			t.Errorf("%s: seed 42 gave streams %s and %s", w, a, b)
		}
		if c := streamHash(w, 43, 2000); a == c {
			t.Errorf("%s: seeds 42 and 43 gave the same stream %s", w, a)
		}
	}
	a, b := writeTailStream(42), writeTailStream(42)
	for i := 0; i < 3*writeCycle; i++ {
		if x, y := a(), b(); x != y {
			t.Fatalf("write tail statement %d differs: %q vs %q", i, x.sql, y.sql)
		}
	}
}

// The plan cache holds 256 plans; ad-hoc texts must almost never repeat
// within that many consecutive statements, or adhoc_reads would hit it.
func TestAdhocTextsRarelyRepeatWithinCacheCapacity(t *testing.T) {
	const capacity, windows = 256, 40
	next := streamFor("adhoc_reads", 7)
	repeats := 0
	for w := 0; w < windows; w++ {
		seen := map[string]bool{}
		for i := 0; i < capacity; i++ {
			s := next().sql
			if seen[s] {
				repeats++
			}
			seen[s] = true
		}
	}
	if share := float64(repeats) / (capacity * windows); share > 0.01 {
		t.Errorf("%d of %d ad-hoc texts repeat within a %d-statement window (%.2f%%)",
			repeats, capacity*windows, capacity, 100*share)
	}
}

// mixed_rw's writes must each affect a row and keep trans within 5% of its
// starting size; the generator's model of the live rows must match the store.
func TestMixedWritesAffectRowsAndKeepTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the full data set")
	}
	ctx := context.Background()
	e, err := setUp(ctx, "mixed_rw", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	g := newWriteGen(subRNG(3, rngWrites))
	for i := 0; i < 2*writeCycle+3; i++ {
		s := g.next()
		r, err := e.db.ExecStatement(ctx, s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.sql, err)
		}
		if r.Affected < 1 {
			t.Errorf("%s affected %d rows", s.sql, r.Affected)
		}
		rows := e.db.Store().TableRows("trans")
		if rows != g.liveRows() {
			t.Fatalf("after %s: trans has %d rows, the generator expects %d", s.sql, rows, g.liveRows())
		}
		if rows < scale*95/100 || rows > scale*105/100 {
			t.Fatalf("after %s: trans has %d rows, outside 5%% of %d", s.sql, rows, scale)
		}
	}
}

func TestSelfTimesAttributeReplaysAndSkipProbes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "read", parent: -1, start: 0, end: 10 * ms},
		{name: "plancache.miss", parent: 0, start: 1 * ms, end: 7 * ms},
		{name: "exec.vectorized", parent: 0, start: 7 * ms, end: 9 * ms},
		// Replayed after the read, attributed to the miss.
		{name: "core.match", parent: 1, flags: flagAttr, start: 11 * ms, end: 15 * ms},
		{name: "qgmcheck.check", parent: 0, flags: flagProbe, start: 15 * ms, end: 16 * ms},
	}
	lt := selfTimes(spans)
	want := map[string]time.Duration{
		"read": 2 * ms, "plancache.miss": 2 * ms, "exec.vectorized": 2 * ms, "core.match": 4 * ms,
	}
	for n, d := range want {
		if lt.self[n] != d {
			t.Errorf("self[%s] = %v, want %v", n, lt.self[n], d)
		}
	}
	if lt.total != 10*ms {
		t.Errorf("self times sum to %v, want the read's 10ms", lt.total)
	}
	if _, ok := lt.self["qgmcheck.check"]; ok || lt.probes["qgmcheck.check"] != ms {
		t.Errorf("probe counted as self time: self=%v probes=%v", lt.self, lt.probes)
	}
}
