// Package astdb is the unified facade over the Automatic Summary Table
// reproduction: one Engine value ties together the catalog, storage, the
// rewriter (matching §3–§6 of the paper), the executor, the plan cache, and
// incremental maintenance, behind context-first Query / Rewrite / Explain /
// Refresh entry points.
//
// The facade also carries the degrade-gracefully contract that used to live in
// internal/resilient: routing a query through a summary table is an
// optimization, never a source of failure. Broken AST definitions, match
// panics, stale or quarantined materializations, and unreadable materialized
// tables all degrade to the base plan; only typed budget errors
// (exec.ErrBudgetExceeded, exec.ErrCanceled) and base-table failures surface.
//
// Observability is opt-in via WithObserver: the engine then records
// hierarchical spans (query → parse/match/plancache.lookup/exec), monotonic
// counters, latency histograms, and a sequenced event stream, all exposed
// through Snapshot. Without an observer every instrumentation point is a
// nil-receiver no-op.
package astdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Re-exported pipeline types, so facade users need no internal imports.
type (
	// Result is an executed query's column names and rows.
	Result = exec.Result
	// Config collects the knobs of one engine run (row budget, timeout,
	// parallelism).
	Config = exec.Config
	// Stats describes one AST maintenance action.
	Stats = maintain.Stats
	// Rewrite is the outcome of a plan-cache-aware rewrite.
	Rewrite = core.CachedRewrite
	// VecMode is the Config.Vectorize knob selecting the executor's
	// evaluation strategy.
	VecMode = exec.VecMode
)

// Config.Vectorize values: VecAuto (the default) runs supported plan shapes
// through the vectorized executor; VecOff pins the row-at-a-time reference
// path.
const (
	VecAuto = exec.VecAuto
	VecOff  = exec.VecOff
)

// SortRows orders result rows deterministically (for display and diffing).
func SortRows(rows [][]sqltypes.Value) { exec.SortRows(rows) }

// Engine is the facade: a catalog plus storage, executor, rewriter, plan
// cache, and maintainer. Construct one with Open (fresh pipeline) or Wrap
// (around existing components). Methods are safe for concurrent queries;
// registering summary tables concurrently with queries is not.
type Engine struct {
	cat   *catalog.Catalog
	store *storage.Store
	exe   *exec.Engine
	rw    *core.Rewriter
	maint *maintain.Maintainer
	obsv  *obs.Observer
	cfg   exec.Config
	cache *core.PlanCache // nil = plan caching disabled

	// The AST set and its derived maintenance plans are read on every Query
	// and published RCU-style: asts always points at an immutable slice that
	// readers load with one atomic op and never mutate; writers (summary-table
	// registration) serialize on mu, build a fresh slice, and swap the
	// pointer. plans caches the maintenance analysis for the published set; a
	// nil pointer means "recompute" and is the write side's invalidation.
	// Engine bookkeeping therefore never serializes concurrent Query calls.
	mu    sync.Mutex // serializes AST-set writers; readers use asts/plans
	asts  atomic.Pointer[[]*core.CompiledAST]
	plans atomic.Pointer[[]*maintain.Plan]
}

// astsNow returns the published AST set. The slice is immutable by contract:
// callers (and everything they pass it to) must not append to or reorder it.
func (e *Engine) astsNow() []*core.CompiledAST {
	if p := e.asts.Load(); p != nil {
		return *p
	}
	return nil
}

// setASTs publishes a new AST set and invalidates the derived maintenance
// plans. Callers must hold e.mu (or be the constructor, pre-publication).
func (e *Engine) setASTs(asts []*core.CompiledAST) {
	e.asts.Store(&asts)
	e.plans.Store(nil)
}

// settings accumulates functional options.
type settings struct {
	store    *storage.Store
	cfg      exec.Config
	cacheCap int // 0 = default size, <0 = disabled
	obsv     *obs.Observer
	coreOpts core.Options
}

// Option configures Open and Wrap.
type Option func(*settings)

// WithStore supplies the storage backing the engine (Open only; Wrap uses the
// executor's store). Default: a fresh empty store.
func WithStore(s *storage.Store) Option { return func(c *settings) { c.store = s } }

// WithLimits sets the execution config (row budget, timeout, parallelism)
// applied to every query and materialization the engine runs.
func WithLimits(cfg exec.Config) Option { return func(c *settings) { c.cfg = cfg } }

// WithPlanCache sizes the rewrite plan cache: n > 0 sets the capacity, n == 0
// keeps the default (core.DefaultPlanCacheSize), n < 0 disables caching.
func WithPlanCache(n int) Option { return func(c *settings) { c.cacheCap = n } }

// WithObserver attaches an observability sink. The observer is threaded
// through the rewriter, executor, catalog, and maintainer, so spans, counters,
// and events from every pipeline stage land in one Snapshot.
func WithObserver(o *obs.Observer) Option { return func(c *settings) { c.obsv = o } }

// WithAllowStale lets queries read summary tables marked stale (quarantined
// ones are never used). Open only; Wrap keeps the passed rewriter's options.
func WithAllowStale(allow bool) Option {
	return func(c *settings) { c.coreOpts.AllowStale = allow }
}

// WithCoreOptions sets the full rewriter option block (ablation switches,
// AllowStale). Open only; apply before WithAllowStale if combining.
func WithCoreOptions(o core.Options) Option { return func(c *settings) { c.coreOpts = o } }

// WithVerifyPlans turns on static plan verification (internal/qgmcheck) at
// both engine seams: every parsed query graph and compiled DML statement is
// checked post-build (a failing build is an engine bug and surfaces as an
// error), and the rewriter runs the deep semantic checker over every accepted
// rewrite (a failing rewrite is discarded and the query degrades to the base
// plan). Default off: the deep checker allocates per plan, and the
// zero-overhead observability contract holds only without it. It sets
// core.Options.VerifyPlans, so it is Open only; Wrap keeps the passed
// rewriter's options.
func WithVerifyPlans(on bool) Option {
	return func(c *settings) { c.coreOpts.VerifyPlans = on }
}

// Open builds a fresh pipeline over the catalog and compiles every summary
// table definition registered in it. Compilation failures are not fatal: the
// engine is returned usable with the definitions that did compile, alongside
// a joined error naming the broken ones. Materializations are not computed;
// call Refresh to populate (or re-populate) the summary tables.
func Open(cat *catalog.Catalog, options ...Option) (*Engine, error) {
	c := settings{}
	for _, o := range options {
		o(&c)
	}
	store := c.store
	if store == nil {
		store = storage.NewStore()
	}
	rw := core.NewRewriter(cat, c.coreOpts)
	e := assemble(cat, store, exec.NewEngine(store), rw, c)
	asts, err := rw.CompileAll()
	e.setASTs(asts)
	return e, err
}

// Wrap builds the facade around existing components — an executor, a rewriter,
// and compiled summary tables — without copying or re-registering anything.
// The store and catalog come from the executor and rewriter; WithStore,
// WithAllowStale, and WithCoreOptions are ignored.
func Wrap(rw *core.Rewriter, exe *exec.Engine, asts []*core.CompiledAST, options ...Option) *Engine {
	c := settings{}
	for _, o := range options {
		o(&c)
	}
	e := assemble(rw.Catalog(), exe.Store(), exe, rw, c)
	e.setASTs(append([]*core.CompiledAST(nil), asts...))
	return e
}

func assemble(cat *catalog.Catalog, store *storage.Store, exe *exec.Engine, rw *core.Rewriter, c settings) *Engine {
	e := &Engine{
		cat:   cat,
		store: store,
		exe:   exe,
		rw:    rw,
		maint: maintain.New(store).WithCatalog(cat),
		cfg:   c.cfg,
	}
	if c.cacheCap >= 0 {
		e.cache = core.NewPlanCache(c.cacheCap)
	}
	if c.obsv != nil {
		e.obsv = c.obsv
		rw.SetObserver(c.obsv)
		exe.SetObserver(c.obsv)
		cat.SetObserver(c.obsv)
		e.maint.WithObserver(c.obsv)
	}
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store returns the engine's storage.
func (e *Engine) Store() *storage.Store { return e.store }

// Exec returns the underlying executor.
func (e *Engine) Exec() *exec.Engine { return e.exe }

// Rewriter returns the underlying rewriter.
func (e *Engine) Rewriter() *core.Rewriter { return e.rw }

// Observer returns the attached observer (nil when observability is off).
func (e *Engine) Observer() *obs.Observer { return e.obsv }

// PlanCache returns the rewrite plan cache (nil when disabled).
func (e *Engine) PlanCache() *core.PlanCache { return e.cache }

// Snapshot returns a copy of the observer's state; the zero Snapshot when no
// observer is attached.
func (e *Engine) Snapshot() obs.Snapshot { return e.obsv.Snapshot() }

// ASTs returns the compiled summary tables, in registration order. The
// returned slice is the caller's to mutate; internal hot paths use astsNow.
func (e *Engine) ASTs() []*core.CompiledAST {
	return append([]*core.CompiledAST(nil), e.astsNow()...)
}

// Degradations drains the degradation errors (recovered match panics,
// discarded invalid rewrites) recorded since the last call.
func (e *Engine) Degradations() []error { return e.rw.Degradations() }

// DegradationEvents drains the sequenced degradation events and reports how
// many older ones the bounded buffer evicted before this drain.
func (e *Engine) DegradationEvents() ([]core.DegradationEvent, int) {
	return e.rw.DegradationEvents()
}

// startSpan roots a span on the engine's observer, or nests it under a span
// already carried by the context.
func (e *Engine) startSpan(ctx context.Context, name string) obs.Span {
	if parent := obs.SpanFromContext(ctx); parent.Enabled() {
		return parent.Child(name)
	}
	return e.obsv.Start(name)
}

// Answer is the outcome of one resilient query.
type Answer struct {
	Result *exec.Result
	// Plan is the graph that produced Result: the rewritten plan when a
	// summary table served the query, the base plan otherwise.
	Plan *qgm.Graph
	// Rewrite carries the match details when the rewriter matched a summary
	// table; nil on base plans and on plan-cache hits (the match ran when the
	// plan was first cached).
	Rewrite *core.Result
	// AST names the summary table the plan read; "" means base tables.
	AST string
	// FellBack marks a query that was rewritten but answered from base tables
	// because executing the rewritten plan failed.
	FellBack bool
	// CacheHit reports that the plan came from the plan cache (no matching
	// ran).
	CacheHit bool
}

// Query answers one SQL query with graceful degradation: parse, choose the
// plan through the plan cache (cost-based, picking the cheapest summary table
// estimated to beat the base plan; a disabled cache chooses the same plan
// every time), execute under the engine's limits, and fall back to the base
// plan — marking the AST stale — if the rewritten plan fails. Only typed
// budget errors and base-plan failures are returned.
func (e *Engine) Query(ctx context.Context, sql string) (*Answer, error) {
	span := e.startSpan(ctx, "query")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	cr, err := e.rw.RewriteSQLCached(ctx, e.cache, sql, e.astsNow(), e.store)
	if err != nil {
		return nil, compileError(err)
	}
	return e.answer(ctx, cr, func() (*qgm.Graph, error) { return e.parse(span, sql) })
}

// QueryGraph is Query for an already-built graph; it bypasses the plan cache.
// The input graph is never mutated (the rewrite works on a clone), so it
// stays available as the fallback base plan.
func (e *Engine) QueryGraph(ctx context.Context, query *qgm.Graph) (*Answer, error) {
	span := e.startSpan(ctx, "query")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	plan, res := e.rw.RewriteOrFallback(ctx, query, e.astsNow(), e.store)
	cr := &Rewrite{Plan: plan, Rewrite: res}
	if res != nil {
		cr.AST = res.AST.Def.Name
	}
	return e.answer(ctx, cr, func() (*qgm.Graph, error) { return query, nil })
}

// answer runs a chosen plan. When a rewritten plan fails for any reason but
// budget exhaustion or cancellation (retrying on base tables could only be
// slower), the summary table is marked stale — which also re-keys any cached
// plan reading it — and the query is re-answered from the base plan that base
// returns.
func (e *Engine) answer(ctx context.Context, cr *Rewrite, base func() (*qgm.Graph, error)) (*Answer, error) {
	r, err := e.runPlan(ctx, cr.Plan)
	if err == nil {
		return &Answer{Result: r, Plan: cr.Plan, Rewrite: cr.Rewrite, AST: cr.AST, CacheHit: cr.Hit}, nil
	}
	if cr.AST == "" || errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled) {
		return nil, err
	}
	e.cat.MarkStale(cr.AST)
	g, berr := base()
	if berr != nil {
		return nil, err
	}
	r, err = e.runPlan(ctx, g)
	if err != nil {
		return nil, err
	}
	return &Answer{Result: r, Plan: g, Rewrite: cr.Rewrite, FellBack: true, CacheHit: cr.Hit}, nil
}

// Rewrite plans one SQL query without executing it, making the plan choice
// Query makes. With no restriction it goes through the plan cache; naming
// summary tables in only restricts the candidate set and bypasses the cache
// (a restricted plan is never one Query would look up). Naming a summary
// table the engine does not have is an ErrUnknownTable.
func (e *Engine) Rewrite(ctx context.Context, sql string, only ...string) (*Rewrite, error) {
	span := e.startSpan(ctx, "rewrite")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	asts, cache := e.astsNow(), e.cache
	if len(only) > 0 {
		var err error
		if asts, err = e.selectASTs(only); err != nil {
			return nil, err
		}
		cache = nil
	}
	cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		return nil, compileError(err)
	}
	return cr, nil
}

// Execute runs one graph under the engine's limits, with panics converted to
// errors. It performs no rewriting and no fallback.
func (e *Engine) Execute(ctx context.Context, g *qgm.Graph) (*exec.Result, error) {
	return e.runPlan(ctx, g)
}

// parse builds a graph from SQL under a "parse" child span, classifying
// failures under the typed error surface (ErrParse / ErrUnknownTable). With
// WithVerifyPlans, the built graph is additionally run through the static
// checker: a violation here means the builder produced an unsound graph, and
// surfaces as an error rather than silently planning over it. (A plan-cache
// miss makes the same check inside core.RewriteSQLCached.)
func (e *Engine) parse(span obs.Span, sql string) (*qgm.Graph, error) {
	p := span.Child("parse")
	g, err := qgm.BuildSQL(sql, e.cat)
	p.End()
	if err != nil {
		return nil, compileError(err)
	}
	if e.rw.Options().VerifyPlans {
		if verr := qgmcheck.AsError(qgmcheck.Check(g)); verr != nil {
			return nil, fmt.Errorf("astdb: built graph failed verification: %w", verr)
		}
	}
	return g, nil
}

// selectASTs returns the compiled ASTs with the given names, in registration
// order, in a fresh slice (filtering in place would scribble on the immutable
// published set). A name with no compiled summary table is an
// ErrUnknownTable.
func (e *Engine) selectASTs(names []string) ([]*core.CompiledAST, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make([]*core.CompiledAST, 0, len(names))
	for _, ca := range e.astsNow() {
		if want[ca.Def.Name] {
			out = append(out, ca)
			delete(want, ca.Def.Name)
		}
	}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("%w: no summary table %q", ErrUnknownTable, n)
		}
	}
	return out, nil
}

// runPlan executes one graph, converting a panic anywhere under the executor
// into an error so the fallback logic always gets control back.
func (e *Engine) runPlan(ctx context.Context, g *qgm.Graph) (r *exec.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, fmt.Errorf("astdb: execution panicked: %v", rec)
		}
	}()
	return e.exe.RunCtx(ctx, g, e.cfg)
}

// CreateTable registers a table in the catalog and creates its (empty)
// storage.
func (e *Engine) CreateTable(t *catalog.Table) error {
	if err := e.cat.AddTable(t); err != nil {
		return err
	}
	meta, _ := e.cat.Table(t.Name)
	e.store.Create(meta)
	return nil
}

// AddForeignKey records a referential-integrity constraint; the matcher uses
// it to prove extra joins lossless (§4.1.1 condition 1).
func (e *Engine) AddForeignKey(fk catalog.ForeignKey) error {
	return e.cat.AddForeignKey(fk)
}

// CreateSummaryTable compiles, registers, and materializes one summary table
// definition, returning the compiled AST and its materialized row count.
func (e *Engine) CreateSummaryTable(ctx context.Context, name, sql string) (*core.CompiledAST, int, error) {
	span := e.startSpan(ctx, "maintain")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	ca, err := e.rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
	if err != nil {
		return nil, 0, err
	}
	if err := e.cat.RegisterAST(catalog.ASTDef{Name: name, SQL: sql}); err != nil {
		return nil, 0, err
	}
	res, err := e.runPlan(ctx, ca.Graph)
	if err != nil {
		e.cat.UnregisterAST(name)
		return nil, 0, fmt.Errorf("astdb: materializing %s: %w", name, err)
	}
	e.store.Put(ca.Table, res.Rows)
	e.mu.Lock()
	old := e.astsNow()
	next := make([]*core.CompiledAST, 0, len(old)+1)
	next = append(append(next, old...), ca)
	e.setASTs(next)
	e.mu.Unlock()
	return ca, len(res.Rows), nil
}

// Insert appends rows to a base table and refreshes every summary table whose
// definition reads it — incrementally where the maintenance plan allows, by
// full recomputation otherwise. Per-AST refresh failures are recorded in the
// returned Stats (the AST goes stale) and joined into the returned error; a
// row of the wrong arity aborts before anything changes.
func (e *Engine) Insert(ctx context.Context, table string, rows [][]sqltypes.Value) ([]maintain.Stats, error) {
	span := e.startSpan(ctx, "maintain")
	defer span.End()
	meta, found := e.cat.Table(table)
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	if _, ok := e.store.Table(table); !ok {
		e.store.Create(meta)
	}
	return e.maint.ApplyInsert(e.maintPlans(), table, rows)
}

// Refresh fully recomputes summary tables from the current base data: the
// named ones, or every registered one when names is empty. A failed refresh
// marks that AST stale and counts toward quarantine; failures are joined into
// the returned error and the Stats slice is always complete.
func (e *Engine) Refresh(ctx context.Context, names ...string) ([]maintain.Stats, error) {
	span := e.startSpan(ctx, "maintain")
	defer span.End()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []maintain.Stats
	var errs []error
	for _, p := range e.maintPlans() {
		if len(names) > 0 && !want[p.AST.Def.Name] {
			continue
		}
		st, err := e.maint.RefreshFull(p)
		out = append(out, st)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
}

// maintPlans returns the maintenance plans for the current AST set, reusing
// the analysis until the set changes. The steady state is one atomic load;
// only the first call after an AST-set change pays the analysis under mu.
func (e *Engine) maintPlans() []*maintain.Plan {
	if p := e.plans.Load(); p != nil {
		return *p
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.plans.Load(); p != nil {
		return *p
	}
	asts := e.astsNow()
	plans := make([]*maintain.Plan, 0, len(asts))
	for _, ca := range asts {
		plans = append(plans, e.maint.Analyze(ca))
	}
	e.plans.Store(&plans)
	return plans
}

// sortedByName orders compiled ASTs by name (for deterministic reporting).
func sortedByName(asts []*core.CompiledAST) []*core.CompiledAST {
	out := append([]*core.CompiledAST(nil), asts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}
