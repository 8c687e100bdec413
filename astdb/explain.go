package astdb

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qgm"
)

// Report is the outcome of Explain: per-candidate matching decisions, the
// chosen plan, and row counts. Its rendering is deterministic for a given
// catalog, data, and query — it names only original query/AST box labels and
// compensation box kinds, never generated compensation labels — so golden
// tests can lock the format.
type Report struct {
	SQL        string
	Candidates []Candidate

	// CandidatesPruned counts the usable candidates the signature index would
	// refuse before full matching on the production path (0 when pruning is
	// disabled via Options.NoPrune).
	CandidatesPruned int

	// ChosenAST names the summary table the cost-based rewrite picked; ""
	// means the query runs on base tables.
	ChosenAST     string
	ChosenPattern string
	// EstBaseRows / EstRewrittenRows are the scan-cost estimates for the
	// chosen candidate (zero when no candidate was chosen).
	EstBaseRows      int
	EstRewrittenRows int

	// ActualRows counts the rows the chosen plan produced; ExecError records
	// an execution failure instead. ExecMode reports how the executor
	// evaluated the plan: "vectorized" when at least one box ran through the
	// vectorized kernels, "compiled-row" for the compiled row path,
	// "interpreted" under Config.Interpret.
	ActualRows int
	ExecMode   string
	ExecError  string
}

// Candidate is one summary table's EXPLAIN entry.
type Candidate struct {
	AST    string
	Status string // "fresh", "stale", or "quarantined"
	Usable bool   // false when status gates it out of matching
	Pruned bool   // the signature index would skip this candidate pre-match

	Matched      bool
	Exact        bool
	Pattern      string // paper pattern ("§4.1.1" … "§5.2") when matched
	MatchedBox   string // query box label the AST can replace
	Compensation string // compensation box kinds, or "projection only"

	// FailReason is the decisive failure for unmatched candidates: the last
	// rejected pair's reason, naming the paper condition that failed.
	FailReason string
	FailedPair string // "subsumee vs subsumer" box labels of that rejection

	// BaseRows / RewrittenRows are the scan-cost estimates (rows read by the
	// replaced subtree vs by the summary table plus rejoins) when matched.
	BaseRows      int
	RewrittenRows int

	Trace []core.TraceEntry
}

// Explain runs the full rewrite decision for one SQL query and reports it:
// every registered summary table is matched against the query with tracing on
// (candidates in name order), core.RewriteOrFallback picks the plan Query
// would, and the chosen plan is executed for its actual row count.
// Explain bypasses the plan cache and never mutates engine state beyond
// counters.
func (e *Engine) Explain(ctx context.Context, sql string) (*Report, error) {
	span := e.startSpan(ctx, "explain")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)

	rep := &Report{SQL: sql}
	// The query signature is computed from a pristine graph (matching below
	// mutates its copies with compensation boxes) and reused per candidate.
	var qsig *catalog.Signature
	if !e.rw.Options().NoPrune {
		g, err := e.parse(span, sql)
		if err != nil {
			return nil, err
		}
		qsig = core.ComputeSignature(e.cat, g)
	}
	for _, ca := range sortedByName(e.ASTs()) {
		// Fresh graph per candidate: matching allocates compensation boxes in
		// the query graph, so candidates cannot share one.
		g, err := e.parse(span, sql)
		if err != nil {
			return nil, err
		}
		cand := e.explainCandidate(g, ca)
		// Report what the production path's signature index would decide for
		// this candidate before full matching (EXPLAIN itself always matches,
		// so pruned candidates still show their trace).
		if cand.Usable && qsig != nil && !e.cat.AdmitsAST(ca.Def.Name, qsig, e.rw.Options().AllowStale) {
			cand.Pruned = true
			rep.CandidatesPruned++
		}
		rep.Candidates = append(rep.Candidates, cand)
	}

	// Query's plan choice, made by the same function.
	g, err := e.parse(span, sql)
	if err != nil {
		return nil, err
	}
	plan, res := e.rw.RewriteOrFallback(ctx, g, e.astsNow(), e.store)
	if res != nil {
		rep.ChosenAST = res.AST.Def.Name
		rep.ChosenPattern = res.Match.Pattern
		rep.EstBaseRows, rep.EstRewrittenRows = e.rw.CostEstimate(res.Match, res.AST, e.store)
	}
	if r, err := e.runPlan(ctx, plan); err != nil {
		rep.ExecError = err.Error()
	} else {
		rep.ActualRows = len(r.Rows)
		rep.ExecMode = r.Mode
	}
	return rep, nil
}

// explainCandidate matches one summary table against a throwaway graph with
// tracing enabled and summarizes the decision.
func (e *Engine) explainCandidate(g *qgm.Graph, ca *core.CompiledAST) Candidate {
	c := Candidate{AST: ca.Def.Name, Status: "fresh"}
	st := e.cat.Status(ca.Def.Name)
	switch {
	case st.Quarantined:
		c.Status = "quarantined"
	case st.Stale:
		c.Status = "stale"
	}
	c.Usable = e.cat.Usable(ca.Def.Name, e.rw.Options().AllowStale)

	matches, trace := e.rw.ExplainMatches(g, ca)
	c.Trace = trace
	if len(matches) == 0 {
		c.FailReason = "no candidate box pairs"
		for i := len(trace) - 1; i >= 0; i-- {
			if !trace[i].Matched {
				c.FailReason = trace[i].Reason
				c.FailedPair = trace[i].Subsumee + " vs " + trace[i].Subsumer
				break
			}
		}
		return c
	}
	// Summarize the candidate's best root match by cost gain (the criterion
	// the cost-based selection applies), ties to the first established.
	best := matches[0]
	bestGain := gainOf(e, best, ca)
	for _, mm := range matches[1:] {
		if g := gainOf(e, mm, ca); g > bestGain {
			best, bestGain = mm, g
		}
	}
	c.Matched = true
	c.Exact = best.Exact
	c.Pattern = best.Pattern
	c.MatchedBox = best.Subsumee.Label
	c.Compensation = compSummary(best)
	c.BaseRows, c.RewrittenRows = e.rw.CostEstimate(best, ca, e.store)
	return c
}

func gainOf(e *Engine, mm *core.Match, ca *core.CompiledAST) int {
	base, rewritten := e.rw.CostEstimate(mm, ca, e.store)
	return base - rewritten
}

// compSummary names a match's compensation by box kinds only — generated
// compensation labels carry a global counter and would break determinism.
func compSummary(mm *core.Match) string {
	if mm.Exact {
		return "projection only"
	}
	kinds := make([]string, len(mm.Stack))
	for i, b := range mm.Stack {
		kinds[i] = b.Kind.String()
	}
	return strings.Join(kinds, " → ")
}

// Render writes the report as the deterministic human-readable EXPLAIN text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN %s\n", strings.Join(strings.Fields(r.SQL), " "))
	fmt.Fprintf(w, "== candidates (%d) ==\n", len(r.Candidates))
	for _, c := range r.Candidates {
		status := c.Status
		if !c.Usable {
			status += ", unusable"
		}
		fmt.Fprintf(w, "%s [%s]\n", c.AST, status)
		for _, te := range c.Trace {
			mark := "✗"
			if te.Matched {
				mark = "✓"
			}
			fmt.Fprintf(w, "  %s %s vs %s: %s\n", mark, te.Subsumee, te.Subsumer, te.Reason)
		}
		if c.Matched {
			fmt.Fprintf(w, "  matched: pattern %s at %s (compensation: %s)\n", c.Pattern, c.MatchedBox, c.Compensation)
			fmt.Fprintf(w, "  estimated rows: base=%d rewritten=%d\n", c.BaseRows, c.RewrittenRows)
		} else if c.FailedPair != "" {
			fmt.Fprintf(w, "  rejected: %s (%s)\n", c.FailReason, c.FailedPair)
		} else {
			fmt.Fprintf(w, "  rejected: %s\n", c.FailReason)
		}
	}
	fmt.Fprintf(w, "candidates pruned: %d\n", r.CandidatesPruned)
	fmt.Fprintln(w, "== plan ==")
	if r.ChosenAST != "" {
		fmt.Fprintf(w, "reads summary table %s (pattern %s), estimated rows: base=%d rewritten=%d\n",
			r.ChosenAST, r.ChosenPattern, r.EstBaseRows, r.EstRewrittenRows)
	} else {
		fmt.Fprintln(w, "reads base tables (no summary table is estimated cheaper)")
	}
	if r.ExecError != "" {
		fmt.Fprintf(w, "execution failed: %s\n", r.ExecError)
	} else {
		fmt.Fprintf(w, "execution: %s, actual rows: %d\n", r.ExecMode, r.ActualRows)
	}
}

// String renders the report to a string.
func (r *Report) String() string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}
