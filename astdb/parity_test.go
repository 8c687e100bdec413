package astdb_test

import (
	"context"
	"sort"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
)

// suiteEngine builds a facade over the paper workload with every summary
// table registered. Each call builds an identical environment (fixed seed),
// so results from two engines are comparable row for row.
func suiteEngine(t *testing.T, opts ...astdb.Option) *astdb.Engine {
	t.Helper()
	env := bench.NewEnvDefault(goldenScale)
	names := make([]string, 0, len(bench.ASTDefs))
	for name := range bench.ASTDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := env.RegisterAST(name, bench.ASTDefs[name]); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return env.DB(opts...)
}

// TestObserverParity runs the whole paper query suite through an observed and
// an unobserved engine and requires identical answers: observability must
// never change what a query returns, which summary table serves it, or
// whether the cache hits. A cache-less engine, Rewrite and Explain must name
// the same summary table as the cached Query: the plan cache memoizes the one
// plan choice, it never makes a different one.
func TestObserverParity(t *testing.T) {
	observed := suiteEngine(t, astdb.WithObserver(obs.New()))
	plain := suiteEngine(t)
	uncached := suiteEngine(t, astdb.WithPlanCache(-1))

	names := make([]string, 0, len(bench.Queries))
	for name := range bench.Queries {
		names = append(names, name)
	}
	sort.Strings(names)

	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ { // second pass goes through the plan cache
		for _, name := range names {
			a, err := observed.Query(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (observed): %v", name, err)
			}
			b, err := plain.Query(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (plain): %v", name, err)
			}
			if a.AST != b.AST || a.CacheHit != b.CacheHit {
				t.Fatalf("%s pass %d: routing diverged: observed (ast=%q hit=%t) vs plain (ast=%q hit=%t)",
					name, pass, a.AST, a.CacheHit, b.AST, b.CacheHit)
			}
			astdb.SortRows(a.Result.Rows)
			astdb.SortRows(b.Result.Rows)
			if diff := exec.EqualResults(a.Result, b.Result); diff != "" {
				t.Fatalf("%s pass %d: results diverged: %s", name, pass, diff)
			}
			c, err := uncached.Query(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (uncached): %v", name, err)
			}
			rw, err := uncached.Rewrite(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (rewrite): %v", name, err)
			}
			rep, err := uncached.Explain(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (explain): %v", name, err)
			}
			if c.AST != b.AST || rw.AST != b.AST || rep.ChosenAST != b.AST {
				t.Errorf("%s pass %d: plan choice diverged: cached Query %q, uncached Query %q, Rewrite %q, Explain %q",
					name, pass, b.AST, c.AST, rw.AST, rep.ChosenAST)
			}
		}
	}

	// The observed engine must actually have recorded the pipeline...
	snap := observed.Snapshot()
	for _, ctr := range []string{"core.match.candidates", "core.plancache.hits", "exec.runs"} {
		if snap.Counters[ctr] <= 0 {
			t.Errorf("observed engine recorded no %s", ctr)
		}
	}
	if len(snap.Spans) == 0 {
		t.Error("observed engine recorded no spans")
	}
	// ...and the unobserved engine must have recorded nothing at all.
	if plainSnap := plain.Snapshot(); len(plainSnap.Counters) != 0 || len(plainSnap.Spans) != 0 || len(plainSnap.Events) != 0 {
		t.Errorf("disabled observer accumulated state: %+v", plainSnap)
	}
}

// TestDisabledInstrumentationZeroAlloc pins the facade's hot-path contract:
// with no observer attached, the per-query instrumentation sequence (span
// from context, child span, counter, end) allocates nothing.
func TestDisabledInstrumentationZeroAlloc(t *testing.T) {
	var o *obs.Observer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		span := obs.SpanFromContext(ctx)
		child := span.Child("exec")
		o.Add("exec.runs", 1)
		o.Observe("exec.run", 0)
		ctx2 := obs.ContextWithSpan(ctx, child)
		_ = ctx2
		child.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f times per run, want 0", allocs)
	}
}
