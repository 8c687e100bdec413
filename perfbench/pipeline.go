package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"time"

	"repro/astdb"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// client is one closed-loop caller: it sends a statement, waits for the
// answer, and only then sends the next. Untraced operations go through the
// public entry points (astdb.Engine.Query / ExecStatement, or database/sql);
// traced ones call the layers' public functions one by one, under spans.
type client struct {
	db     *astdb.Engine
	conn   *sql.DB // wire_reads only
	tr     *tracer
	layers layerCounts

	// match is a rewriter over the engine's catalog with pruning switched
	// off: attribution replays prune themselves (core.prune) and hand it
	// only the admitted candidates, so core.match times matching alone.
	match *core.Rewriter
	asts  []*core.CompiledAST
}

func newClient(db *astdb.Engine, conn *sql.DB, origin time.Time) *client {
	opts := db.Rewriter().Options()
	opts.NoPrune = true
	return &client{db: db, conn: conn, tr: newTracer(origin),
		match: core.NewRewriter(db.Catalog(), opts), asts: db.ASTs()}
}

// layerCounts are the work counts the traced operations record, next to
// their spans.
type layerCounts struct {
	reads, writes  int
	hits           int
	hitTime        time.Duration
	replays        int
	boxes          int
	admitted       int
	withCandidate  int
	rewritten      int
	vectorized     int
	baseExec       time.Duration
	rowsScanned    int64
	rowsOut        int64
	refreshes      int
	fullRecomputes int
	deltaRows      int
	touched        int
	epochBumps     int64
	wireOps        int
	wireBytes      int64
	wireRows       int64
	wireOverhead   time.Duration
	wireEncode     time.Duration
	wireDecode     time.Duration
}

// answer is what a read returned, as rows of engine values.
type answer struct {
	cols []string
	rows [][]sqltypes.Value
	ast  string // summary table that served the plan; "" for base tables
}

// read runs one read and returns its answer and latency.
func (c *client) read(ctx context.Context, sqlText string, traced bool) (answer, time.Duration, error) {
	if c.conn != nil {
		if traced {
			return c.tracedWireRead(ctx, sqlText)
		}
		start := time.Now()
		rows, err := wireQuery(ctx, c.conn, sqlText)
		return answer{rows: rows}, time.Since(start), err
	}
	if traced {
		root := c.tr.root("read")
		ans, pl, err := c.tracedRead(ctx, sqlText, root)
		lat := c.tr.end(root)
		if err == nil {
			c.afterRead(ctx, sqlText, root, pl)
		}
		return ans, lat, err
	}
	start := time.Now()
	a, err := c.db.Query(ctx, sqlText)
	lat := time.Since(start)
	if err != nil {
		return answer{}, lat, err
	}
	return answer{cols: a.Result.Cols, rows: a.Result.Rows, ast: a.AST}, lat, nil
}

// plannedRead is what afterRead needs from a traced read.
type plannedRead struct {
	plan   *qgm.Graph
	lookup int32 // the plan-cache span
	hit    bool
}

// tracedRead is astdb.Engine.Query taken apart: the plan-cache-aware rewrite,
// then execution under the engine's (zero) limits.
func (c *client) tracedRead(ctx context.Context, sqlText string, parent int32) (answer, plannedRead, error) {
	t := c.tr
	c.layers.reads++
	lk := t.begin("plancache.lookup", parent, 0)
	cr, err := c.db.Rewriter().RewriteSQLCached(ctx, c.db.PlanCache(), sqlText, c.asts, c.db.Store())
	d := t.end(lk)
	if err != nil {
		return answer{}, plannedRead{}, err
	}
	if cr.Hit {
		c.layers.hits++
		c.layers.hitTime += d
	} else {
		t.rename(lk, "plancache.miss")
	}
	ex := t.begin("exec", parent, 0)
	res, err := c.db.Exec().RunCtx(ctx, cr.Plan, astdb.Config{})
	d = t.end(ex)
	if err != nil {
		return answer{}, plannedRead{}, err
	}
	t.rename(ex, "exec."+res.Mode)
	if res.Mode == exec.ModeVectorized {
		c.layers.vectorized++
	}
	if cr.AST == "" {
		c.layers.baseExec += d
	}
	for _, leaf := range cr.Plan.Leaves() {
		c.layers.rowsScanned += int64(c.db.Store().TableRows(leaf.Table.Name))
	}
	c.layers.rowsOut += int64(len(res.Rows))
	return answer{cols: res.Cols, rows: res.Rows, ast: cr.AST}, plannedRead{plan: cr.Plan, lookup: lk, hit: cr.Hit}, nil
}

// afterRead runs once a traced read's latency is taken: on a plan-cache miss
// it replays the planning as attribution spans under the miss span, and it
// probes qgmcheck on the chosen plan.
func (c *client) afterRead(ctx context.Context, sqlText string, parent int32, pl plannedRead) {
	if !pl.hit {
		c.replayPlanning(ctx, sqlText, pl.lookup)
	}
	pr := c.tr.begin("qgmcheck.check", parent, flagProbe)
	qgmcheck.Check(pl.plan)
	c.tr.end(pr)
}

// replayPlanning re-runs, from the layers' public functions, the planning a
// plan-cache miss did inside RewriteSQLCached.
func (c *client) replayPlanning(ctx context.Context, sqlText string, miss int32) {
	t := c.tr
	c.layers.replays++
	sp := t.begin("parser.parse", miss, flagAttr)
	stmt, err := parser.Parse(sqlText)
	t.end(sp)
	if err != nil {
		return
	}
	sp = t.begin("qgm.build", miss, flagAttr)
	g, err := qgm.Build(stmt, c.db.Catalog())
	t.end(sp)
	if err != nil {
		return
	}
	c.layers.boxes += len(g.Boxes())
	clone := g.Clone()
	cat := c.db.Catalog()
	allowStale := c.match.Options().AllowStale
	sp = t.begin("core.prune", miss, flagAttr)
	sig := core.ComputeSignature(cat, clone)
	admitted := make([]*core.CompiledAST, 0, len(c.asts))
	for _, a := range c.asts {
		if cat.AdmitsAST(a.Def.Name, sig, allowStale) {
			admitted = append(admitted, a)
		}
	}
	t.end(sp)
	c.layers.admitted += len(admitted)
	sp = t.begin("core.match", miss, flagAttr)
	res := c.match.RewriteBestCostCtx(ctx, clone, admitted, c.db.Store())
	t.end(sp)
	if len(admitted) > 0 {
		c.layers.withCandidate++
		if res != nil {
			c.layers.rewritten++
		}
	}
}

// tracedWireRead times the database/sql round trip, then attributes it: the
// same statement through the in-process pipeline, and the wire codec on its
// result. What the attribution leaves of the round trip is the serving
// stack's own time (driver, framing, sockets, session goroutines).
func (c *client) tracedWireRead(ctx context.Context, sqlText string) (answer, time.Duration, error) {
	t := c.tr
	root := t.root("read")
	cl := t.begin("wire.client", root, 0)
	rows, err := wireQuery(ctx, c.conn, sqlText)
	clientLat := t.end(cl)
	lat := t.end(root)
	if err != nil {
		return answer{}, lat, err
	}
	in := t.begin("astdb.query", cl, flagAttr)
	ans, pl, err := c.tracedRead(ctx, sqlText, in)
	inproc := t.end(in)
	if err != nil {
		return answer{}, lat, err
	}
	c.afterRead(ctx, sqlText, in, pl)
	res := &wire.Rows{Cols: ans.cols, Kinds: wire.InferKinds(ans.cols, ans.rows), Rows: ans.rows, AST: ans.ast}
	sp := t.begin("wire.encode", cl, flagAttr)
	payload := res.Encode()
	enc := t.end(sp)
	sp = t.begin("wire.decode", cl, flagAttr)
	_, derr := wire.DecodeRows(payload)
	dec := t.end(sp)
	if derr != nil {
		return answer{}, lat, fmt.Errorf("wire codec probe: %w", derr)
	}
	c.layers.wireOps++
	c.layers.wireBytes += int64(len(payload))
	c.layers.wireRows += int64(len(ans.rows))
	c.layers.wireOverhead += clientLat - inproc
	c.layers.wireEncode += enc
	c.layers.wireDecode += dec
	return answer{rows: rows}, lat, nil
}

// write applies one DML statement and returns the rows it affected.
func (c *client) write(ctx context.Context, s stmt, traced bool) (int, time.Duration, error) {
	if c.conn != nil {
		var root, cl int32
		if traced {
			root = c.tr.root("write")
			cl = c.tr.begin("wire.client", root, 0)
		}
		start := time.Now()
		r, err := c.conn.ExecContext(ctx, s.sql)
		lat := time.Since(start)
		if traced {
			c.tr.end(cl)
			lat = c.tr.end(root)
		}
		if err != nil {
			return 0, lat, err
		}
		n, err := r.RowsAffected()
		return int(n), lat, err
	}
	if !traced {
		start := time.Now()
		r, err := c.db.ExecStatement(ctx, s.sql)
		lat := time.Since(start)
		if err != nil {
			return 0, lat, err
		}
		return r.Affected, lat, nil
	}
	return c.tracedWrite(ctx, s)
}

// tracedWrite times ExecStatement as the maintain layer and attributes the
// statement's parse and build to their own layers by replaying them. The
// per-AST maintain.Stats.Duration is deliberately not used (see NOTES.md).
func (c *client) tracedWrite(ctx context.Context, s stmt) (int, time.Duration, error) {
	t := c.tr
	c.layers.writes++
	before := c.epochSum()
	root := t.root("write")
	call := t.begin("maintain.stmt", root, 0)
	r, err := c.db.ExecStatement(ctx, s.sql)
	t.end(call)
	lat := t.end(root)
	if err != nil {
		return 0, lat, err
	}
	c.layers.epochBumps += c.epochSum() - before
	for _, st := range r.Stats {
		c.layers.refreshes++
		if st.Strategy == maintain.FullRecompute {
			c.layers.fullRecomputes++
			c.layers.touched++
			continue
		}
		c.layers.deltaRows += st.DeltaRows
		if st.DeltaRows > 0 {
			c.layers.touched++
		}
	}
	sp := t.begin("parser.parse", call, flagAttr)
	parsed, perr := parser.ParseStatement(s.sql)
	t.end(sp)
	if perr == nil {
		switch st := parsed.(type) {
		case *parser.DeleteStmt:
			sp = t.begin("qgm.build", call, flagAttr)
			_, _ = qgm.BuildDelete(st, c.db.Catalog()) // timing only; the call above already built it
			t.end(sp)
		case *parser.UpdateStmt:
			sp = t.begin("qgm.build", call, flagAttr)
			_, _ = qgm.BuildUpdate(st, c.db.Catalog()) // timing only; the call above already built it
			t.end(sp)
		}
	}
	return r.Affected, lat, nil
}

// epochSum adds up the summary tables' refresh epochs.
func (c *client) epochSum() int64 {
	var n int64
	for _, a := range c.asts {
		n += c.db.Catalog().Status(a.Def.Name).Epoch
	}
	return n
}

// wireQuery runs one query through database/sql and converts the rows back
// to engine values for checking.
func wireQuery(ctx context.Context, conn *sql.DB, sqlText string) ([][]sqltypes.Value, error) {
	rows, err := conn.QueryContext(ctx, sqlText)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	var out [][]sqltypes.Value
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		row := make([]sqltypes.Value, len(cols))
		for i, v := range vals {
			row[i], err = fromDriver(v)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// fromDriver maps a database/sql value back onto the engine's value domain
// (the inverse of the driver's conversion).
func fromDriver(v any) (sqltypes.Value, error) {
	switch x := v.(type) {
	case nil:
		return sqltypes.Null, nil
	case int64:
		return sqltypes.NewInt(x), nil
	case float64:
		return sqltypes.NewFloat(x), nil
	case string:
		return sqltypes.NewString(x), nil
	case []byte:
		return sqltypes.NewString(string(x)), nil
	case bool:
		return sqltypes.NewBool(x), nil
	case time.Time:
		return sqltypes.NewDate(x.Year(), int(x.Month()), x.Day()), nil
	}
	return sqltypes.Null, errors.New("perfbench: unexpected driver value type")
}
