package core_test

// Tests for the graceful-degradation layer: partial CompileAll, match-panic
// recovery, staleness/quarantine filtering, and RewriteOrFallback's
// always-runnable guarantee.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

const resAST = `select flid, year(date) as year, count(*) as cnt
	from trans group by flid, year(date)`

const resQuery = `select flid, count(*) as cnt from trans where year(date) > 1990 group by flid`

func TestCompileAllSkipsBrokenASTs(t *testing.T) {
	e := newEnv(t, 200)
	e.cat.MustRegisterAST(catalog.ASTDef{Name: "good1", SQL: resAST})
	e.cat.MustRegisterAST(catalog.ASTDef{Name: "broken_syntax", SQL: "select from where"})
	e.cat.MustRegisterAST(catalog.ASTDef{Name: "broken_table", SQL: "select x from no_such_table"})
	e.cat.MustRegisterAST(catalog.ASTDef{Name: "good2", SQL: "select state, count(*) as c from trans, loc where flid = lid group by state"})

	asts, err := e.rw.CompileAll()
	if err == nil {
		t.Fatal("expected a joined error for the broken definitions")
	}
	if len(asts) != 2 {
		t.Fatalf("got %d compiled ASTs, want 2 (the good ones)", len(asts))
	}
	for _, ca := range asts {
		if !strings.HasPrefix(ca.Def.Name, "good") {
			t.Fatalf("unexpected survivor %q", ca.Def.Name)
		}
	}
	msg := err.Error()
	if !strings.Contains(msg, "broken_syntax") || !strings.Contains(msg, "broken_table") {
		t.Fatalf("joined error misses a broken AST: %v", err)
	}
}

func TestRewriteSkipsStaleAndQuarantined(t *testing.T) {
	e := newEnv(t, 300)
	ca := e.registerAST(t, "staleast", resAST)

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	if e.rw.Rewrite(g, ca) == nil {
		t.Fatal("fresh AST should match")
	}

	e.cat.MarkStale("staleast")
	g2, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := e.rw.Rewrite(g2, ca); res != nil {
		t.Fatal("stale AST used with AllowStale=false")
	}
	if res := e.rw.RewriteBest(g2, []*core.CompiledAST{ca}); res != nil {
		t.Fatal("RewriteBest used a stale AST")
	}

	// AllowStale opts back in.
	rwStale := core.NewRewriter(e.cat, core.Options{AllowStale: true})
	g3, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := rwStale.Rewrite(g3, ca); res == nil {
		t.Fatal("AllowStale rewriter refused a stale AST")
	}

	// Quarantine beats AllowStale.
	e.cat.SetQuarantineThreshold(1)
	e.cat.RecordRefreshFailure("staleast")
	g4, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := rwStale.Rewrite(g4, ca); res != nil {
		t.Fatal("quarantined AST was used")
	}

	// Recovery restores matching.
	e.cat.MarkFresh("staleast")
	g5, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := e.rw.Rewrite(g5, ca); res == nil {
		t.Fatal("recovered AST should match again")
	}
}

func TestMatchPanicIsRecovered(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	e := newEnv(t, 300)
	bad := e.registerAST(t, "panicky", resAST)
	good := e.registerAST(t, "healthy", resAST)
	faultinject.Set("core.match:panicky", faultinject.Fault{Panic: "injected match panic"})

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	res := e.rw.RewriteBest(g, []*core.CompiledAST{bad, good})
	if res == nil {
		t.Fatal("panicking candidate prevented the healthy one from matching")
	}
	if res.AST.Def.Name != "healthy" {
		t.Fatalf("rewrote against %q, want healthy", res.AST.Def.Name)
	}
	degs := e.rw.Degradations()
	found := false
	for _, d := range degs {
		var mp *core.MatchPanicError
		if errors.As(d, &mp) && mp.AST == "panicky" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no MatchPanicError recorded; degradations: %v", degs)
	}
}

func TestRewriteOrFallbackNeverMutatesInput(t *testing.T) {
	e := newEnv(t, 300)
	ca := e.registerAST(t, "fb", resAST)

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	before := g.SQL()
	plan, res := e.rw.RewriteOrFallback(context.Background(), g, []*core.CompiledAST{ca}, e.store)
	if res == nil {
		t.Fatal("expected a rewrite")
	}
	if plan == g {
		t.Fatal("rewritten plan aliases the input graph")
	}
	if g.SQL() != before {
		t.Fatal("input graph was mutated")
	}
	if err := qgmcheck.Structural(plan); err != nil {
		t.Fatalf("returned plan invalid: %v", err)
	}

	// Original and rewritten plans agree.
	origRes, err := e.engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := e.engine.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if diff := exec.EqualResults(origRes, newRes); diff != "" {
		t.Fatalf("results differ: %s", diff)
	}
}

func TestRewriteOrFallbackReturnsBasePlanUnderPanic(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	e := newEnv(t, 300)
	ca := e.registerAST(t, "allpanic", resAST)
	faultinject.Set("core.match", faultinject.Fault{Panic: "boom"})

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, res := e.rw.RewriteOrFallback(context.Background(), g, []*core.CompiledAST{ca}, e.store)
	if res != nil {
		t.Fatal("rewrite succeeded despite injected panic")
	}
	if plan != g {
		t.Fatal("fallback should return the original graph")
	}
	if _, err := e.engine.Run(plan); err != nil {
		t.Fatalf("base plan not runnable: %v", err)
	}
}

func TestRewriteBestCtxCanceledFallsBack(t *testing.T) {
	e := newEnv(t, 300)
	ca := e.registerAST(t, "ctxast", resAST)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := e.rw.RewriteOrFallback(ctx, g, []*core.CompiledAST{ca}, e.store)
	// With a dead context matching stops immediately; whatever plan comes
	// back must still run.
	if _, err := e.engine.Run(plan); err != nil {
		t.Fatalf("plan under canceled context not runnable: %v", err)
	}
}
