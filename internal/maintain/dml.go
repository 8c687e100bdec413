// Delete/update delta rules. A delete delta is the definition evaluated
// over just the removed rows; merging it subtracts — COUNT and non-nullable
// SUM exactly, with a group retired the moment its COUNT(*)-equivalent
// tracker reaches zero. MIN/MAX (and SUM over nullable input) cannot be
// un-merged, so affected groups are recomputed from the post-change base
// tables, scoped by injected grouping-key predicates. An UPDATE is a delete
// delta (old rows) plus an insert delta (new rows) applied in one merge.

package maintain

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
)

// maxScopedGroups caps how many groups one scoped recompute will restrict the
// definition to; past it the injected OR-of-keys predicate costs more than
// recomputing everything, so the refresh falls back to full.
const maxScopedGroups = 256

// ApplyDelete removes the rows of dml's table matched by its predicate (3VL:
// only rows whose WHERE is True) and refreshes every AST reading the table —
// by count-tracked delta retirement where DeleteRouting allows, by full
// recomputation otherwise. It returns the number of rows deleted. A predicate
// evaluation error aborts before anything is mutated.
func (m *Maintainer) ApplyDelete(plans []*Plan, dml *qgm.DML) (int, []Stats, error) {
	table := strings.ToLower(dml.Table.Name)
	td, ok := m.store.Table(table)
	if !ok {
		return 0, nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	snap := td.Snapshot()
	ev := exec.NewRowEvaluator(dml.Q)
	var deleted, remaining [][]sqltypes.Value
	for _, row := range snap {
		match := true
		if dml.Where != nil {
			tri, err := ev.Pred(dml.Where, row)
			if err != nil {
				return 0, nil, fmt.Errorf("maintain: DELETE WHERE: %w", err)
			}
			match = tri == sqltypes.True
		}
		if match {
			deleted = append(deleted, row)
		} else {
			remaining = append(remaining, row)
		}
	}
	if len(deleted) == 0 {
		return 0, nil, nil
	}
	stats, err := m.applyDML(plans, table, "maintain.delete:", deleted, nil, func() {
		m.store.Put(td.Meta, remaining)
	})
	return len(deleted), stats, err
}

// ApplyUpdate rewrites the rows of dml's table matched by its predicate
// through its SET assignments (each assignment sees the row's pre-update
// values) and refreshes every AST reading the table; the incremental path
// applies the delete delta of the old rows and the insert delta of the new
// rows in one merge. It returns the number of rows updated. Any evaluation
// error — including a NULL assigned to a NOT NULL column, or a value of the
// wrong kind — aborts before anything is mutated.
func (m *Maintainer) ApplyUpdate(plans []*Plan, dml *qgm.DML) (int, []Stats, error) {
	table := strings.ToLower(dml.Table.Name)
	td, ok := m.store.Table(table)
	if !ok {
		return 0, nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	snap := td.Snapshot()
	ev := exec.NewRowEvaluator(dml.Q)
	var oldRows, newRows [][]sqltypes.Value
	newBase := make([][]sqltypes.Value, 0, len(snap))
	for _, row := range snap {
		match := true
		if dml.Where != nil {
			tri, err := ev.Pred(dml.Where, row)
			if err != nil {
				return 0, nil, fmt.Errorf("maintain: UPDATE WHERE: %w", err)
			}
			match = tri == sqltypes.True
		}
		if !match {
			newBase = append(newBase, row)
			continue
		}
		nr := append([]sqltypes.Value(nil), row...)
		for _, s := range dml.Sets {
			col := dml.Table.Columns[s.Col]
			v, err := ev.Scalar(s.Expr, row)
			if err != nil {
				return 0, nil, fmt.Errorf("maintain: UPDATE SET %s: %w", col.Name, err)
			}
			v, err = coerceValue(v, col)
			if err != nil {
				return 0, nil, fmt.Errorf("maintain: UPDATE SET %s: %w", col.Name, err)
			}
			nr[s.Col] = v
		}
		oldRows = append(oldRows, row)
		newRows = append(newRows, nr)
		newBase = append(newBase, nr)
	}
	if len(oldRows) == 0 {
		return 0, nil, nil
	}
	stats, err := m.applyDML(plans, table, "maintain.update:", oldRows, newRows, func() {
		m.store.Put(td.Meta, newBase)
	})
	return len(oldRows), stats, err
}

// coerceValue conforms an evaluated SET value to its column: NOT NULL is
// enforced, integers widen into float columns, and integer yyyymmdd values
// land in date columns.
func coerceValue(v sqltypes.Value, col catalog.Column) (sqltypes.Value, error) {
	if v.IsNull() {
		if !col.Nullable {
			return v, fmt.Errorf("NULL into NOT NULL column")
		}
		return v, nil
	}
	switch {
	case v.Kind() == col.Type:
		return v, nil
	case col.Type == sqltypes.KindFloat && v.Kind() == sqltypes.KindInt:
		return sqltypes.NewFloat(v.Float()), nil
	case col.Type == sqltypes.KindDate && v.Kind() == sqltypes.KindInt:
		n := v.Int()
		return sqltypes.NewDate(int(n/10000), int((n/100)%100), int(n%100)), nil
	default:
		return v, fmt.Errorf("%v value into %v column", v.Kind(), col.Type)
	}
}

// applyDML runs the maintenance sequence shared by INSERT, DELETE and
// UPDATE. Per-AST delta merges are prepared against the pre-change store,
// then change applies the base change (a copy-on-write swap or appends, so
// concurrent readers keep a consistent snapshot), and only then is each
// prepared merge completed (scoped recompute where MIN/MAX groups were hit)
// and published.
// A change without old rows is an insert and routes by InsertRouting; any
// other routes by DeleteRouting. A prepared merge that fails at any point
// degrades to a full recompute over the post-change base; only a successful
// refresh of either kind marks the AST fresh. Each AST's Duration covers its
// own prepare and its own publish or recompute, not other ASTs' work.
func (m *Maintainer) applyDML(plans []*Plan, table, sitePrefix string, oldRows, newRows [][]sqltypes.Value, change func()) ([]Stats, error) {
	type refresh struct {
		p    *Plan
		pm   *pendingMerge // nil: full recompute
		prep time.Duration
	}
	var todo []refresh
	for _, p := range plans {
		if !p.baseTabs[table] {
			continue
		}
		start := time.Now()
		route := p.DeleteRouting
		if len(oldRows) == 0 {
			route = p.InsertRouting
		}
		r := refresh{p: p}
		if strat, _ := route(table); strat == Incremental && !m.staleOrQuarantined(p.Name()) {
			if pm, err := m.dmlDelta(p, table, sitePrefix+p.Name(), oldRows, newRows); err == nil {
				r.pm = pm
			}
		}
		r.prep = time.Since(start)
		todo = append(todo, r)
	}

	change()

	var out []Stats
	var errs []error
	for _, r := range todo {
		start := time.Now()
		if r.pm != nil && m.scopedRecompute(r.p, r.pm) == nil {
			if r.pm.st.DeltaRows > 0 {
				m.store.Put(r.p.AST.Table, r.pm.rows)
			}
			m.markFresh(r.p.Name())
			st := r.pm.st
			st.AST, st.Strategy = r.p.Name(), Incremental
			st.Duration = r.prep + time.Since(start)
			out = append(out, st)
			m.obsv.Add("maintain.refresh.incremental", 1)
			m.obsv.Add("maintain.dml.deltas", int64(st.DeltaRows))
			m.obsv.Add("maintain.dml.retired", int64(st.Retired))
			m.obsv.Add("maintain.dml.scoped", int64(st.Scoped))
			m.obsv.Observe("maintain.refresh.incremental", st.Duration)
			continue
		}
		// Not incremental, or the prepared merge could not be completed.
		st, err := m.RefreshFull(r.p)
		st.Duration = r.prep + time.Since(start)
		out = append(out, st)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
}

// pendingMerge is a prepared (but unpublished) post-DML materialization.
type pendingMerge struct {
	rows   [][]sqltypes.Value
	scoped map[string][]sqltypes.Value // group key → grouping-key values
	st     Stats
}

// groupKey renders a row's grouping-key columns into a map key.
func (p *Plan) groupKey(r []sqltypes.Value) string {
	var sb strings.Builder
	for _, k := range p.keyCols {
		sb.WriteString(r[k].GroupKey())
		sb.WriteByte(0)
	}
	return sb.String()
}

// dmlDelta evaluates the delete delta (over oldRows) and insert delta (over
// newRows) of one AST on overlay stores — the pre-mutation base never changes
// — and merges both into a pending copy of the materialization. Panics are
// recovered into errors; the caller falls back to full recomputation.
func (m *Maintainer) dmlDelta(p *Plan, table, site string, oldRows, newRows [][]sqltypes.Value) (pm *pendingMerge, err error) {
	defer func() {
		if r := recover(); r != nil {
			pm, err = nil, fmt.Errorf("maintain: delta merge panicked: %v", r)
		}
	}()
	if err := faultinject.Hit(site); err != nil {
		return nil, err
	}
	if err := m.auditPlan(p); err != nil {
		return nil, err
	}
	td := m.store.MustTable(table)
	delta := func(kind string, rows [][]sqltypes.Value) ([][]sqltypes.Value, error) {
		if len(rows) == 0 {
			return nil, nil
		}
		res, err := exec.NewEngine(m.store.Overlay(table, td.Meta, rows)).Run(p.AST.Graph)
		if err != nil {
			return nil, fmt.Errorf("maintain: %s delta eval: %w", kind, err)
		}
		return res.Rows, nil
	}
	del, err := delta("delete", oldRows)
	if err != nil {
		return nil, err
	}
	ins, err := delta("insert", newRows)
	if err != nil {
		return nil, err
	}
	return m.mergeDeltas(p, del, ins)
}

// mergeDeltas folds a delete delta and an insert delta into a copy of the
// current materialization. Retirement is strict: a delete delta for a group
// the materialization does not hold, or a tracker going negative, means the
// materialization and the base disagree — the merge is abandoned (full
// recompute) rather than published. When both deltas are empty nothing is
// copied and the pending merge has DeltaRows 0, which publishes nothing: a
// dimension insert must not re-chunk every summary table.
func (m *Maintainer) mergeDeltas(p *Plan, del, ins [][]sqltypes.Value) (*pendingMerge, error) {
	if len(del)+len(ins) == 0 {
		return &pendingMerge{}, nil
	}
	mat, ok := m.store.Table(p.Name())
	if !ok {
		return nil, fmt.Errorf("maintain: AST %q not materialized", p.Name())
	}
	snap := mat.Snapshot()
	merged := make([][]sqltypes.Value, len(snap), len(snap)+len(ins))
	copy(merged, snap)
	index := make(map[string]int, len(merged))
	for i, r := range merged {
		index[p.groupKey(r)] = i
	}
	scopedCol := make(map[int]bool, len(p.scopedCols))
	for _, c := range p.scopedCols {
		scopedCol[c] = true
	}
	dead := map[int]bool{}
	pm := &pendingMerge{scoped: map[string][]sqltypes.Value{}}

	for _, d := range del {
		pm.st.DeltaRows++
		k := p.groupKey(d)
		i, ok := index[k]
		if !ok {
			return nil, fmt.Errorf("maintain: delete delta names a group %s does not hold", p.Name())
		}
		nr := append([]sqltypes.Value(nil), merged[i]...)
		oc, dc := nr[p.counterCol], d[p.counterCol]
		if oc.IsNull() || dc.IsNull() {
			return nil, fmt.Errorf("maintain: NULL tracker count in %s", p.Name())
		}
		n := oc.Int() - dc.Int()
		if n < 0 {
			return nil, fmt.Errorf("maintain: tracker count of %s went negative", p.Name())
		}
		if n == 0 {
			// Every row of the group left: retire it.
			dead[i] = true
			delete(index, k)
			pm.st.Retired++
			continue
		}
		for ci, role := range p.roles {
			if role.key || ci == p.counterCol || scopedCol[ci] {
				continue
			}
			if d[ci].IsNull() {
				continue // the departed rows contributed nothing here
			}
			if nr[ci].IsNull() {
				return nil, fmt.Errorf("maintain: subtracting from NULL aggregate in %s", p.Name())
			}
			v, err := sqltypes.Sub(nr[ci], d[ci])
			if err != nil {
				return nil, fmt.Errorf("maintain: subtracting column %d: %w", ci, err)
			}
			nr[ci] = v
		}
		nr[p.counterCol] = sqltypes.NewInt(n)
		if len(p.scopedCols) > 0 {
			kv := make([]sqltypes.Value, len(p.keyCols))
			for j, kc := range p.keyCols {
				kv[j] = nr[kc]
			}
			pm.scoped[k] = kv
		}
		merged[i] = nr
		pm.st.Merged++
	}
	for _, d := range ins {
		pm.st.DeltaRows++
		k := p.groupKey(d)
		if i, ok := index[k]; ok {
			// Insert-side merge adds or takes extremes (mergeRow); scoped
			// columns are overwritten by the recompute below anyway.
			nr := append([]sqltypes.Value(nil), merged[i]...)
			if err := mergeRow(p, nr, d); err != nil {
				return nil, err
			}
			merged[i] = nr
			pm.st.Merged++
		} else {
			// New group (or one fully retired above and reborn from the
			// new rows alone — the insert delta is then its exact value).
			nr := append([]sqltypes.Value(nil), d...)
			merged = append(merged, nr)
			index[k] = len(merged) - 1
			pm.st.Added++
		}
	}
	if len(dead) > 0 {
		final := make([][]sqltypes.Value, 0, len(merged)-len(dead))
		for i, r := range merged {
			if !dead[i] {
				final = append(final, r)
			}
		}
		merged = final
	}
	pm.rows = merged
	return pm, nil
}

// scopedRecompute restores the MIN/MAX (and nullable-SUM) columns of the
// groups a delete touched: it re-evaluates the AST definition over the
// post-mutation base tables with the affected groups' key equalities injected
// into the lower box, then splices the recomputed rows into the pending
// materialization. The injected plan is gated through qgmcheck before it
// runs. No-op when no group needs it.
func (m *Maintainer) scopedRecompute(p *Plan, pm *pendingMerge) error {
	if len(pm.scoped) == 0 {
		return nil
	}
	if err := faultinject.Hit("maintain.scoped:" + p.Name()); err != nil {
		return err
	}
	if len(pm.scoped) > maxScopedGroups {
		return fmt.Errorf("maintain: %d affected groups exceed the scoped-recompute cap (%d)", len(pm.scoped), maxScopedGroups)
	}
	clone := p.AST.Graph.Clone()
	gb := clone.Root.Quantifiers[0].Box
	lower := gb.Child()

	keys := make([]string, 0, len(pm.scoped))
	for k := range pm.scoped {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic predicate shape
	var or qgm.Expr
	for _, k := range keys {
		var and qgm.Expr
		for j, ord := range p.keyLowerOrds {
			e := lower.Cols[ord].Expr
			var c qgm.Expr
			if pm.scoped[k][j].IsNull() {
				c = &qgm.IsNull{E: e}
			} else {
				c = &qgm.Bin{Op: "=", L: e, R: &qgm.Const{Val: pm.scoped[k][j]}}
			}
			if and == nil {
				and = c
			} else {
				and = &qgm.Bin{Op: "AND", L: and, R: c}
			}
		}
		if or == nil {
			or = and
		} else {
			or = &qgm.Bin{Op: "OR", L: or, R: and}
		}
	}
	lower.Preds = append(lower.Preds, or)
	if err := qgmcheck.Structural(clone); err != nil {
		return fmt.Errorf("maintain: scoped plan failed verification: %w", err)
	}
	res, err := m.engine.Run(clone)
	if err != nil {
		return fmt.Errorf("maintain: scoped recompute: %w", err)
	}
	byKey := make(map[string][]sqltypes.Value, len(res.Rows))
	for _, r := range res.Rows {
		byKey[p.groupKey(r)] = r
	}
	for i, r := range pm.rows {
		k := p.groupKey(r)
		if _, affected := pm.scoped[k]; !affected {
			continue
		}
		nr, ok := byKey[k]
		if !ok {
			// The tracker says rows remain but the recompute found none: the
			// materialization and base disagree.
			return fmt.Errorf("maintain: scoped recompute lost group in %s", p.Name())
		}
		pm.rows[i] = append([]sqltypes.Value(nil), nr...)
	}
	pm.st.Scoped = len(pm.scoped)
	return nil
}
