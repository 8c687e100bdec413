package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

// Observability counter names reported by the rewriter. Constant strings keep
// the disabled fast path allocation-free; the taxonomy is documented in
// DESIGN.md §9.
const (
	CtrMatchCandidates = "core.match.candidates"
	CtrMatchAccepts    = "core.match.accepts"
	CtrMatchRejects    = "core.match.rejects"
	CtrMatchPanics     = "core.match.panics"
	CtrPruned          = "core.prune.pruned"
	CtrPruneAdmitted   = "core.prune.admitted"
	CtrDegradations    = "core.degradations"
	CtrCacheHits       = "core.plancache.hits"
	CtrCacheMisses     = "core.plancache.misses"
	CtrCacheEvictions  = "core.plancache.evictions"
)

// CompiledAST is a registered Automatic Summary Table ready for matching: its
// definition, its QGM graph, and the schema of its materialized table.
type CompiledAST struct {
	Def   catalog.ASTDef
	Graph *qgm.Graph
	Table *catalog.Table
	// Sig is the pruning signature computed at compile time and registered in
	// the catalog's signature index; nil disables pruning for this AST.
	Sig *catalog.Signature
}

// Rewriter rewrites queries to read ASTs instead of base tables. It holds no
// per-query state; one Rewriter serves many rewrites. Matching is
// best-effort: a panic inside one candidate's match attempt is recovered,
// recorded, and treated as "no match", so a single broken AST can cost
// rewrite opportunities but never the query.
type Rewriter struct {
	cat  *catalog.Catalog
	opts Options
	obsv *obs.Observer // nil = observability disabled

	mu       sync.Mutex
	degraded []DegradationEvent
	dropped  int // degradation events evicted since the last drain
}

// DegradationEvent is one recorded degradation, stamped with a process-wide
// monotonic sequence number (obs.NextSeq) so it can be ordered against
// catalog and maintenance events on one total order.
type DegradationEvent struct {
	Seq uint64
	Err error
}

// maxDegradations bounds the degradation events retained between drains. A
// long-running server with a persistently broken AST degrades on every query;
// without the cap an undrained Rewriter would leak memory. The newest events
// are kept (they are the ones worth diagnosing) and evictions are counted.
const maxDegradations = 128

// NewRewriter returns a rewriter over the catalog with the given options.
func NewRewriter(cat *catalog.Catalog, opts Options) *Rewriter {
	return &Rewriter{cat: cat, opts: opts}
}

// Catalog returns the rewriter's catalog.
func (rw *Rewriter) Catalog() *catalog.Catalog { return rw.cat }

// SetObserver attaches an observer recording match counters, cache
// statistics, and the degradation event stream; nil detaches. Not safe to
// call concurrently with rewrites.
func (rw *Rewriter) SetObserver(o *obs.Observer) { rw.obsv = o }

// CompileAST parses and compiles an AST definition. The returned Table
// describes the materialized result (callers register it in the catalog and
// populate it in storage before executing rewritten queries).
func (rw *Rewriter) CompileAST(def catalog.ASTDef) (*CompiledAST, error) {
	stmt, err := parser.Parse(def.SQL)
	if err != nil {
		return nil, fmt.Errorf("core: AST %q: %w", def.Name, err)
	}
	g, err := qgm.Build(stmt, rw.cat)
	if err != nil {
		return nil, fmt.Errorf("core: AST %q: %w", def.Name, err)
	}
	sig := ComputeSignature(rw.cat, g)
	rw.cat.SetASTSignature(def.Name, sig)
	return &CompiledAST{Def: def, Graph: g, Table: g.Root.OutputTable(def.Name), Sig: sig}, nil
}

// CompileAll compiles every AST registered in the catalog. A definition that
// fails to compile is skipped, not fatal: the successfully compiled ASTs are
// always returned, alongside a joined error carrying one entry per broken
// definition (nil when all compiled). Callers should use the returned slice
// even when err != nil.
func (rw *Rewriter) CompileAll() ([]*CompiledAST, error) {
	var out []*CompiledAST
	var errs []error
	for _, def := range rw.cat.ASTs() {
		ca, err := rw.CompileAST(def)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, ca)
	}
	return out, errors.Join(errs...)
}

// MatchPanicError records a panic recovered during one AST's match attempt.
type MatchPanicError struct {
	AST   string
	Value any
}

func (e *MatchPanicError) Error() string {
	return fmt.Sprintf("core: match against AST %q panicked: %v", e.AST, e.Value)
}

// noteDegraded records a degradation event for later inspection, evicting the
// oldest retained event once the buffer holds maxDegradations. Each event
// draws a process-wide sequence number and, when an observer is attached, is
// mirrored into its event stream under the same number.
func (rw *Rewriter) noteDegraded(err error) {
	ev := DegradationEvent{Seq: obs.NextSeq(), Err: err}
	rw.mu.Lock()
	if len(rw.degraded) >= maxDegradations {
		copy(rw.degraded, rw.degraded[1:])
		rw.degraded[len(rw.degraded)-1] = ev
		rw.dropped++
	} else {
		rw.degraded = append(rw.degraded, ev)
	}
	rw.mu.Unlock()
	rw.obsv.Add(CtrDegradations, 1)
	if rw.obsv.Enabled() {
		rw.obsv.EmitSeq(ev.Seq, "core.degraded", err.Error())
	}
}

// Degradations drains and returns the degradation errors (recovered match
// panics, discarded invalid rewrites) recorded since the last call. At most
// maxDegradations events are retained between drains; when older events were
// evicted, the first entry is a synthetic error reporting how many. Use
// DegradationEvents to also get the sequence numbers.
func (rw *Rewriter) Degradations() []error {
	events, dropped := rw.DegradationEvents()
	out := make([]error, 0, len(events)+1)
	if dropped > 0 {
		out = append(out, fmt.Errorf("core: %d older degradation events dropped", dropped))
	}
	for _, ev := range events {
		out = append(out, ev.Err)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DegradationEvents drains and returns the sequenced degradation events
// recorded since the last call, plus how many older events were evicted from
// the bounded buffer before this drain.
func (rw *Rewriter) DegradationEvents() ([]DegradationEvent, int) {
	rw.mu.Lock()
	events := rw.degraded
	dropped := rw.dropped
	rw.degraded, rw.dropped = nil, 0
	rw.mu.Unlock()
	return events, dropped
}

// usable reports whether an AST may serve rewrites right now: quarantined
// ASTs never, stale ones only under Options.AllowStale.
func (rw *Rewriter) usable(ast *CompiledAST) bool {
	return rw.cat.Usable(ast.Def.Name, rw.opts.AllowStale)
}

// querySig computes the query's pruning signature once per rewrite, or nil
// when pruning is disabled (Options.NoPrune) so every candidate is admitted.
func (rw *Rewriter) querySig(query *qgm.Graph) *catalog.Signature {
	if rw.opts.NoPrune {
		return nil
	}
	return ComputeSignature(rw.cat, query)
}

// admit consults the catalog signature index for one candidate before the
// full match is attempted. A nil query signature admits everything (pruning
// disabled or the query references tables the index cannot map).
func (rw *Rewriter) admit(qsig *catalog.Signature, ast *CompiledAST) bool {
	if qsig == nil {
		return true
	}
	if !rw.cat.AdmitsAST(ast.Def.Name, qsig, rw.opts.AllowStale) {
		rw.obsv.Add(CtrPruned, 1)
		return false
	}
	rw.obsv.Add(CtrPruneAdmitted, 1)
	return true
}

// safeMatches runs the matcher for one candidate AST, converting a panic in
// the match machinery (or an injected fault at "core.match:<name>") into "no
// matches", so the rewrite moves on to the next candidate or the base plan.
// Compensation boxes allocated before a panic are unreachable from the query
// root and therefore inert.
func (rw *Rewriter) safeMatches(ctx context.Context, query *qgm.Graph, ast *CompiledAST) (out []*Match) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			rw.obsv.Add(CtrMatchPanics, 1)
			rw.noteDegraded(&MatchPanicError{AST: ast.Def.Name, Value: r})
		}
	}()
	rw.obsv.Add(CtrMatchCandidates, 1)
	if err := faultinject.Hit("core.match:" + ast.Def.Name); err != nil {
		rw.noteDegraded(err)
		return nil
	}
	matcher := NewMatcher(rw.cat, query, ast.Graph, rw.opts)
	matcher.obsv = rw.obsv
	return matcher.RunCtx(ctx)
}

// Result describes one successful rewrite.
type Result struct {
	AST      *CompiledAST
	Match    *Match
	Replaced *qgm.Box // the query box that was replaced
}

// Rewrite attempts to rewrite the query graph to read the given AST. On
// success it splices the AST's materialized table plus the compensation into
// the graph (mutating it) and returns a Result; it returns nil when no match
// exists, when the AST is stale/quarantined, or when matching panicked
// (recovered and recorded). When several query boxes match the AST's root,
// the highest (largest-subtree) one is replaced, maximizing the work the AST
// absorbs.
func (rw *Rewriter) Rewrite(query *qgm.Graph, ast *CompiledAST) *Result {
	if !rw.usable(ast) {
		return nil
	}
	matches := rw.safeMatches(context.Background(), query, ast)
	if len(matches) == 0 {
		return nil
	}

	heights := boxHeights(query)
	var best *Match
	for _, mm := range matches {
		if best == nil || heights[mm.Subsumee.ID] > heights[best.Subsumee.ID] {
			best = mm
		}
	}

	rw.splice(query, ast, best)
	return &Result{AST: ast, Match: best, Replaced: best.Subsumee}
}

// RewriteBest tries every compiled AST and applies the one matching the
// highest query box; it returns nil when none match. (The paper routes a
// query towards multiple ASTs by iterating; RewriteBest is one iteration.)
// Stale and quarantined ASTs are skipped; a candidate whose match attempt
// panics is skipped (recovered and recorded), never fatal. This is the
// paper's §7 height-ordered routing; query entry points choose plans by cost
// through RewriteOrFallback instead.
func (rw *Rewriter) RewriteBest(query *qgm.Graph, asts []*CompiledAST) *Result {
	type cand struct {
		ast *CompiledAST
		mm  *Match
	}
	heights := boxHeights(query)
	qsig := rw.querySig(query)
	var best *cand
	for _, ast := range asts {
		if !rw.usable(ast) || !rw.admit(qsig, ast) {
			continue
		}
		for _, mm := range rw.safeMatches(context.Background(), query, ast) {
			if best == nil || heights[mm.Subsumee.ID] > heights[best.mm.Subsumee.ID] {
				best = &cand{ast: ast, mm: mm}
			}
		}
	}
	if best == nil {
		return nil
	}
	rw.splice(query, best.ast, best.mm)
	return &Result{AST: best.ast, Match: best.mm, Replaced: best.mm.Subsumee}
}

// RewriteOrFallback is the one plan choice behind every query entry point
// (plan-cache misses, Query, Rewrite, EXPLAIN): it always returns a runnable
// graph. It picks the cheapest beneficial rewrite by RewriteBestCostCtx on a
// clone of the query and verifies it; if no usable AST is estimated cheaper,
// matching panics, or the rewritten graph fails verification, the original
// graph is returned untouched with a nil Result. The input graph is never
// mutated, so callers can re-run it as the base plan if executing the
// rewritten plan later fails. sizer must not be nil.
func (rw *Rewriter) RewriteOrFallback(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) (*qgm.Graph, *Result) {
	clone := query.Clone()
	res := rw.RewriteBestCostCtx(ctx, clone, asts, sizer)
	if res == nil {
		return query, nil
	}
	if err := rw.verifyRewrite(clone, asts); err != nil {
		rw.noteDegraded(fmt.Errorf("core: discarding invalid rewrite against %q: %w", res.AST.Def.Name, err))
		return query, nil
	}
	return clone, res
}

// verifyRewrite gates an accepted rewrite. The structural check (box shape,
// pointer-identity bindings, grouping-set canonicalization, scalar arity)
// always runs; with Options.VerifyPlans the full semantic checker runs too —
// type inference and the compensation post-conditions of internal/qgmcheck,
// classified against the candidate AST definitions. Verification failures discard the rewrite
// (the caller degrades to the base plan); they are never query failures.
func (rw *Rewriter) verifyRewrite(g *qgm.Graph, asts []*CompiledAST) error {
	if err := qgmcheck.Structural(g); err != nil {
		return err
	}
	if !rw.opts.VerifyPlans {
		return nil
	}
	defs := make(map[string]*qgm.Graph, len(asts))
	for _, ca := range asts {
		defs[ca.Def.Name] = ca.Graph
	}
	ck := &qgmcheck.Checker{ASTDefs: defs}
	return qgmcheck.AsError(ck.Check(g))
}

// Explain runs the matcher with tracing enabled (without rewriting) and
// returns the per-candidate-pair decision log: which box pairs matched, which
// failed, and which of the paper's conditions rejected them.
func (rw *Rewriter) Explain(query *qgm.Graph, ast *CompiledAST) []TraceEntry {
	_, trace := rw.ExplainMatches(query, ast)
	return trace
}

// ExplainMatches is Explain returning the established root matches alongside
// the decision log, so callers (EXPLAIN reports) can also cost the candidate.
// Matching allocates compensation boxes in the query graph; pass a throwaway
// graph.
func (rw *Rewriter) ExplainMatches(query *qgm.Graph, ast *CompiledAST) ([]*Match, []TraceEntry) {
	opts := rw.opts
	opts.Trace = true
	matcher := NewMatcher(rw.cat, query, ast.Graph, opts)
	matches := matcher.Run()
	return matches, matcher.Trace()
}

// Options returns the rewriter's option set.
func (rw *Rewriter) Options() Options { return rw.opts }

// Sizer estimates table cardinalities for cost-based AST applicability —
// problem (b) of the paper's introduction ("deciding whether an AST should
// actually be used in answering a query", citing Chaudhuri et al.).
// *storage.Store implements it.
type Sizer interface {
	TableRows(name string) int
}

// RewriteBestCost chooses among all (AST, matched box) candidates by a simple
// scan-cost model — rows read from the AST's materialized table plus its
// rejoined base tables, versus the base-table rows the replaced subtree would
// read — and applies the cheapest candidate only if it actually beats the
// base plan. It returns nil when no candidate matches or none is estimated
// cheaper.
func (rw *Rewriter) RewriteBestCost(query *qgm.Graph, asts []*CompiledAST, sizer Sizer) *Result {
	return rw.RewriteBestCostCtx(context.Background(), query, asts, sizer)
}

// RewriteBestCostCtx is cost-based rewrite selection with the candidate
// matching fanned out across goroutines: each usable AST is matched against a
// private clone of the query graph (the matcher allocates compensation boxes
// in the query graph, so candidates cannot share one), its best cost gain is
// computed, and the winner — by gain, then AST name, so the outcome does not
// depend on goroutine scheduling — is re-matched against the real graph and
// spliced. Each candidate's match runs behind the usual safeMatches recover
// barrier; a panicking candidate drops out of the race, never the query.
func (rw *Rewriter) RewriteBestCostCtx(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) *Result {
	span := obs.SpanFromContext(ctx).Child("match")
	defer span.End()
	qsig := rw.querySig(query)
	var usable []*CompiledAST
	for _, ast := range asts {
		if rw.usable(ast) && rw.admit(qsig, ast) {
			usable = append(usable, ast)
		}
	}
	if len(usable) == 0 {
		return nil
	}

	gains := make([]int, len(usable)) // <= 0: no beneficial match
	if len(usable) == 1 {
		gains[0] = rw.bestGain(ctx, query.Clone(), usable[0], sizer)
	} else {
		var wg sync.WaitGroup
		for i, ast := range usable {
			wg.Add(1)
			go func(i int, ast *CompiledAST) {
				defer wg.Done()
				gains[i] = rw.bestGain(ctx, query.Clone(), ast, sizer)
			}(i, ast)
		}
		wg.Wait()
	}

	winner := -1
	for i, ast := range usable {
		if gains[i] <= 0 {
			continue
		}
		if winner < 0 || gains[i] > gains[winner] ||
			(gains[i] == gains[winner] && ast.Def.Name < usable[winner].Def.Name) {
			winner = i
		}
	}
	if winner < 0 {
		return nil
	}

	// Re-match the winner on the real graph (matching is deterministic, so
	// this reproduces the probed gain) and splice its best match in place.
	type cand struct {
		mm   *Match
		gain int
	}
	var best *cand
	for _, mm := range rw.safeMatches(ctx, query, usable[winner]) {
		gain := rw.costGain(mm, usable[winner], sizer)
		if gain <= 0 {
			continue
		}
		if best == nil || gain > best.gain {
			best = &cand{mm: mm, gain: gain}
		}
	}
	if best == nil {
		return nil
	}
	rw.splice(query, usable[winner], best.mm)
	return &Result{AST: usable[winner], Match: best.mm, Replaced: best.mm.Subsumee}
}

// bestGain probes one candidate on a throwaway clone of the query and returns
// its best positive cost gain (0 when it has no beneficial match).
func (rw *Rewriter) bestGain(ctx context.Context, clone *qgm.Graph, ast *CompiledAST, sizer Sizer) int {
	best := 0
	for _, mm := range rw.safeMatches(ctx, clone, ast) {
		if gain := rw.costGain(mm, ast, sizer); gain > best {
			best = gain
		}
	}
	return best
}

// costGain estimates base-plan cost minus rewritten cost for one match, in
// rows scanned.
func (rw *Rewriter) costGain(mm *Match, ast *CompiledAST, sizer Sizer) int {
	base, rewritten := rw.CostEstimate(mm, ast, sizer)
	return base - rewritten
}

// CostEstimate returns the scan-cost model behind cost-based rewrite
// selection, in rows read: the base plan's cost counts each base-table
// quantifier under the replaced subtree once (a scan per join operand); the
// rewritten plan's cost is the materialized AST's rows plus any rejoined base
// tables in the compensation. EXPLAIN surfaces both numbers per candidate.
func (rw *Rewriter) CostEstimate(mm *Match, ast *CompiledAST, sizer Sizer) (baseRows, rewrittenRows int) {
	seen := map[int]bool{}
	var walk func(b *qgm.Box)
	walk = func(b *qgm.Box) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, q := range b.Quantifiers {
			if q.Box.Kind == qgm.BaseTableBox {
				baseRows += sizer.TableRows(q.Box.Table.Name)
			} else {
				walk(q.Box)
			}
		}
	}
	walk(mm.Subsumee)

	rewrittenRows = sizer.TableRows(ast.Def.Name)
	for _, b := range mm.Stack {
		for _, q := range b.Quantifiers {
			if q != mm.SubQ && q.Box.Kind == qgm.BaseTableBox {
				rewrittenRows += sizer.TableRows(q.Box.Table.Name)
			}
		}
	}
	return baseRows, rewrittenRows
}

// RewriteAll routes the query towards multiple ASTs by the paper's iterative
// process (§7): at each iteration the result of the previous rewrite is
// matched against the remaining ASTs, until no AST matches. It returns the
// applied rewrites in order.
func (rw *Rewriter) RewriteAll(query *qgm.Graph, asts []*CompiledAST) []*Result {
	var out []*Result
	remaining := append([]*CompiledAST(nil), asts...)
	// Each successful iteration consumes base-table regions; bound the loop
	// defensively anyway.
	for iter := 0; iter <= len(asts); iter++ {
		res := rw.RewriteBest(query, remaining)
		if res == nil {
			return out
		}
		out = append(out, res)
		// An AST applied once is unlikely to apply again (its region now
		// reads the materialized table); drop it to guarantee progress.
		next := remaining[:0]
		for _, a := range remaining {
			if a != res.AST {
				next = append(next, a)
			}
		}
		remaining = next
	}
	return out
}

// splice replaces the matched subsumee box with the compensation over the
// AST's materialized table.
func (rw *Rewriter) splice(query *qgm.Graph, ast *CompiledAST, mm *Match) {
	astBase := query.BaseTableBox(ast.Table)

	var top *qgm.Box
	if mm.Exact {
		// Pure projection of the materialized table.
		proj := query.NewBox(qgm.SelectBox, compLabel("Sel"))
		q := query.NewQuantifier(qgm.ForEach, astBase, "")
		proj.Quantifiers = []*qgm.Quantifier{q}
		for i, col := range mm.Subsumee.Cols {
			proj.Cols = append(proj.Cols, qgm.QCL{
				Name: col.Name,
				Expr: &qgm.ColRef{Q: q, Col: mm.ColMap[i]},
			})
		}
		top = proj
	} else {
		// Re-point the compensation's subsumer quantifier at the
		// materialized table (its columns align with the AST root's output
		// columns by construction).
		mm.SubQ.Box = astBase
		top = mm.Comp()
	}

	if query.Root == mm.Subsumee {
		query.Root = top
		return
	}
	for _, b := range query.Boxes() {
		for _, q := range b.Quantifiers {
			if q.Box == mm.Subsumee {
				q.Box = top
			}
		}
	}
}

// boxHeights computes each box's height (longest path to a leaf), used to
// prefer replacing the largest matched subtree.
func boxHeights(g *qgm.Graph) map[int]int {
	h := map[int]int{}
	for _, b := range g.Boxes() { // bottom-up order
		best := 0
		for _, q := range b.Quantifiers {
			if hh := h[q.Box.ID] + 1; hh > best {
				best = hh
			}
		}
		h[b.ID] = best
	}
	return h
}
