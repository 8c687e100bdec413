package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
)

// The statement streams. Every input a workload sends comes from its seed
// alone: the same seed gives the same statements in the same order, and the
// program under test sees only the generated SQL text.

// stmtKind classifies one generated statement.
type stmtKind uint8

const (
	kindRead stmtKind = iota
	kindInsert
	kindDelete
	kindUpdate
)

func (k stmtKind) String() string {
	return [...]string{"read", "insert", "delete", "update"}[k]
}

// stmt is one generated statement. ref is the suite index of a suite read and
// -1 for every other statement.
type stmt struct {
	kind stmtKind
	sql  string
	ref  int
}

// Data set: the Figure 1 star schema at the scale and data seed the repo's
// own benchmarks use (bench_test.go's benchScale, bench.NewEnv's seed).
const (
	scale    = 20000
	dataSeed = 20000521
	numAccts = scale / 500 // workload.StarConfig defaults
	numLocs  = 200
	numPGrps = 50
)

// paperASTs and paperQueries are the paper's summary tables and queries the
// common set-up registers and the suite runs, next to the DS suite's own.
var (
	paperASTs    = []string{"ast1", "ast2", "ast6", "ast7", "ast8", "ast10", "ast11"}
	paperQueries = []string{"q1", "q2", "q4", "q6", "q7", "q8", "q10",
		"q11_1", "q11_2", "q11_3", "q12_1", "q12_2"}
)

// namedSQL is one summary-table definition.
type namedSQL struct{ name, sql string }

// summaryTables returns the 14 summary tables of the common set-up, in
// registration order.
func summaryTables() []namedSQL {
	var out []namedSQL
	for _, d := range workload.DSASTs {
		out = append(out, namedSQL{d.Name, d.SQL})
	}
	for _, n := range paperASTs {
		out = append(out, namedSQL{n, bench.ASTDefs[n]})
	}
	return out
}

// suiteSQL is the read suite's 24 statements: DS1–DS12 and the paper's
// queries.
var suiteSQL = func() []string {
	var out []string
	for _, q := range workload.DSQueries {
		out = append(out, q.SQL)
	}
	for _, n := range paperQueries {
		out = append(out, bench.Queries[n])
	}
	return out
}()

// subRNG derives an independent generator for one purpose from the workload
// seed, so adding draws for one purpose never shifts another's stream.
func subRNG(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + purpose*104729 + 1))
}

// Purposes of the derived generators.
const (
	rngReads int64 = iota + 1
	rngWrites
	rngChecks
	rngWarmup
)

// suiteGen runs the suite in passes, each pass a fresh seeded permutation.
type suiteGen struct {
	rng   *rand.Rand
	n     int
	order []int
	pos   int
}

func newSuiteGen(rng *rand.Rand) *suiteGen {
	n := len(suiteSQL)
	return &suiteGen{rng: rng, n: n, pos: n}
}

func (g *suiteGen) next() stmt {
	if g.pos == g.n {
		g.order = g.rng.Perm(g.n)
		g.pos = 0
	}
	i := g.order[g.pos]
	g.pos++
	return stmt{kind: kindRead, sql: suiteSQL[i], ref: i}
}

var (
	countries = []string{"USA", "Canada", "Mexico", "Germany", "Japan"}
	states    = []string{"CA", "NY", "TX", "WA", "IL", "MA", "FL", "OR", "CO", "GA",
		"ON", "BC", "QC", "JAL", "NLE", "BY", "BE", "13", "27"}
)

// adhocTemplates are the ad-hoc analyst queries. All but the count(distinct)
// template are answerable from one of the 14 summary tables; that one is
// matched against the (flid, year, month) summaries and refused, so it runs on
// the base tables. Each template has thousands of literal combinations, so
// texts almost never repeat within the plan cache's 256 entries.
var adhocTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string { // ast1 plus a rejoin to loc
		return fmt.Sprintf(`select faid, state, year(date) as year, count(*) as cnt from trans, loc `+
			`where flid = lid and country = '%s' and year(date) >= %d group by faid, state, year(date) having count(*) > %d`,
			countries[r.Intn(len(countries))], 1990+r.Intn(3), r.Intn(300))
	},
	func(r *rand.Rand) string { // st_product_month
		m1 := 1 + r.Intn(12)
		m2 := m1 + r.Intn(13-m1)
		return fmt.Sprintf(`select fpgid, year(date) as year, sum(qty) as items, sum(qty * price) as gross from trans `+
			`where year(date) = %d and month(date) >= %d and month(date) <= %d and fpgid <= %d group by fpgid, year(date)`,
			1990+r.Intn(3), m1, m2, 1+r.Intn(numPGrps))
	},
	func(r *rand.Rand) string { // st_disc_year
		return fmt.Sprintf(`select year(date) as year, sum(qty * price * disc) as givenaway, count(*) as cnt from trans `+
			`where disc > %.2f and year(date) >= %d group by year(date) having count(*) > %d`,
			float64(r.Intn(30))/100, 1990+r.Intn(3), r.Intn(100))
	},
	func(r *rand.Rand) string { // st_loc_year plus a rejoin to loc
		return fmt.Sprintf(`select state, year(date) as year, sum(qty * price * (1 - disc)) as revenue from trans, loc `+
			`where flid = lid and state = '%s' and year(date) >= %d group by state, year(date) having sum(qty * price * (1 - disc)) > %d`,
			states[r.Intn(len(states))], 1990+r.Intn(3), 100*r.Intn(100))
	},
	func(r *rand.Rand) string { // st_acct_year
		return fmt.Sprintf(`select faid, sum(qty * price) as spend from trans `+
			`where year(date) >= %d group by faid having sum(qty * price) > %d`,
			1990+r.Intn(3), 10*r.Intn(3000))
	},
	func(r *rand.Rand) string { // st_loc_month_detail
		return fmt.Sprintf(`select flid, year(date) as year, count(*) as cnt from trans `+
			`where year(date) >= %d and month(date) >= %d group by flid, year(date) having count(*) > %d`,
			1990+r.Intn(3), 1+r.Intn(12), r.Intn(200))
	},
	func(r *rand.Rand) string { // matched but refused: count(distinct) at a finer grain
		return fmt.Sprintf(`select year(date) as year, month(date) as month, count(distinct faid) as custcnt from trans `+
			`where flid = %d and month(date) >= %d and year(date) >= %d group by year(date), month(date)`,
			1+r.Intn(numLocs), 1+r.Intn(12), 1990+r.Intn(3))
	},
	func(r *rand.Rand) string { // ast6
		return fmt.Sprintf(`select year(date) as year, month(date) as month, sum(qty * price) as value from trans `+
			`where year(date) = %d and month(date) >= %d group by year(date), month(date) having sum(qty * price) > %d`,
			1990+r.Intn(3), 1+r.Intn(12), 100*r.Intn(1000))
	},
	func(r *rand.Rand) string { // ast10 plus a rejoin to loc
		return fmt.Sprintf(`select city, count(*) as cnt from trans, loc `+
			`where flid = lid and state = '%s' group by city having count(*) > %d`,
			states[r.Intn(len(states))], r.Intn(300))
	},
}

// adhocGen draws ad-hoc texts: a uniform template, then uniform literals.
type adhocGen struct{ rng *rand.Rand }

func (g *adhocGen) next() stmt {
	t := adhocTemplates[g.rng.Intn(len(adhocTemplates))]
	return stmt{kind: kindRead, sql: t(g.rng), ref: -1}
}

// writeCycle is the write mix: one 8-row INSERT, then eight DELETE/UPDATE
// pairs on live tids. Each cycle deletes exactly the rows it inserted, so
// trans stays within 8 rows of its starting size however long a run lasts.
const (
	insertRows = 8
	writeCycle = 1 + 2*insertRows
)

// writeGen generates the write stream. It tracks which tids are live from
// the statements it has generated, so every DELETE and UPDATE names a row
// that exists provided the program applied the earlier writes.
type writeGen struct {
	rng     *rand.Rand
	live    []int64
	pos     map[int64]int
	nextTid int64
	step    int
}

func newWriteGen(rng *rand.Rand) *writeGen {
	g := &writeGen{rng: rng, pos: make(map[int64]int, scale), nextTid: scale + 1}
	for tid := int64(1); tid <= scale; tid++ {
		g.add(tid)
	}
	return g
}

func (g *writeGen) add(tid int64) {
	g.pos[tid] = len(g.live)
	g.live = append(g.live, tid)
}

// take removes and returns a uniformly drawn live tid.
func (g *writeGen) take() int64 {
	i := g.rng.Intn(len(g.live))
	tid := g.live[i]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.pos[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, tid)
	return tid
}

func (g *writeGen) pick() int64 { return g.live[g.rng.Intn(len(g.live))] }

func (g *writeGen) next() stmt {
	step := g.step % writeCycle
	g.step++
	switch {
	case step == 0:
		var sb strings.Builder
		sb.WriteString("insert into trans values ")
		for i := 0; i < insertRows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			tid := g.nextTid
			g.nextTid++
			g.add(tid)
			month := 1 + g.rng.Intn(12)
			fmt.Fprintf(&sb, "(%d, %d, %d, %d, '%d-%02d-%02d', %d, %.1f, %.2f)",
				tid, 1+g.rng.Intn(numAccts), 1+g.rng.Intn(numPGrps), 1+g.rng.Intn(numLocs),
				1990+g.rng.Intn(3), month, 1+g.rng.Intn(28),
				1+g.rng.Intn(5), float64(1+g.rng.Intn(5000))/10, float64(g.rng.Intn(30))/100)
		}
		return stmt{kind: kindInsert, sql: sb.String(), ref: -1}
	case step%2 == 1:
		return stmt{kind: kindDelete, sql: fmt.Sprintf("delete from trans where tid = %d", g.take()), ref: -1}
	default:
		return stmt{kind: kindUpdate, sql: fmt.Sprintf("update trans set qty = %d where tid = %d",
			1+g.rng.Intn(5), g.pick()), ref: -1}
	}
}

// liveRows is the number of trans rows the stream expects to exist.
func (g *writeGen) liveRows() int { return len(g.live) }

// readsPerWrite is mixed_rw's read:write ratio.
const readsPerWrite = 4

// mixedGen interleaves suite reads with the write stream. The reads run the
// suite in seeded permutations, as hot_reads does, so every run reads each
// statement equally often and the read mix does not vary with the seed.
type mixedGen struct {
	reads  *suiteGen
	writes *writeGen
	n      int
}

func (g *mixedGen) next() stmt {
	g.n++
	if g.n%(readsPerWrite+1) == 0 {
		return g.writes.next()
	}
	return g.reads.next()
}

// streamFor returns the statement generator of a workload's client.
func streamFor(w string, seed int64) func() stmt {
	switch w {
	case "hot_reads", "wire_reads":
		return newSuiteGen(subRNG(seed, rngReads)).next
	case "adhoc_reads":
		return (&adhocGen{rng: subRNG(seed, rngReads)}).next
	case "mixed_rw":
		return (&mixedGen{reads: newSuiteGen(subRNG(seed, rngReads)), writes: newWriteGen(subRNG(seed, rngWrites))}).next
	}
	panic("perfbench: unknown workload " + w)
}

// writeTailStream is the write-only phase that ends each read-only workload.
func writeTailStream(seed int64) func() stmt {
	return newWriteGen(subRNG(seed, rngWrites)).next
}

// streamHash digests the first n statements of a workload's stream, so two
// runs can be shown to have sent identical inputs.
func streamHash(w string, seed int64, n int) string {
	h := sha256.New()
	digest(h, streamFor(w, seed), n)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest writes n statements of a stream into h.
func digest(h hash.Hash, next func() stmt, n int) {
	for i := 0; i < n; i++ {
		s := next()
		fmt.Fprintf(h, "%s\t%s\n", s.kind, s.sql)
	}
}
