package main

import (
	"context"
	"fmt"
	"math"

	"repro/astdb"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// Answers are checked outside the timed section: rows are sorted and compared
// as multisets, floats with the relative tolerance parallel float-SUM
// accumulation is allowed (DESIGN.md §13.3; exec.EqualResults uses the same).

// baseAnswer runs a read's base plan, with no summary-table rewrite, on the
// engine's current store. Its rows come back sorted.
func baseAnswer(ctx context.Context, db *astdb.Engine, sqlText string) ([][]sqltypes.Value, error) {
	g, err := qgm.BuildSQL(sqlText, db.Catalog())
	if err != nil {
		return nil, err
	}
	res, err := db.Execute(ctx, g)
	if err != nil {
		return nil, err
	}
	exec.SortRows(res.Rows)
	return res.Rows, nil
}

// sameRows compares an answer against sorted reference rows and describes
// the first difference ("" when they agree). It sorts got in place.
func sameRows(got, want [][]sqltypes.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	exec.SortRows(got)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !closeEnough(got[i][j], want[i][j]) {
				return fmt.Sprintf("row %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
	return ""
}

// closeEnough is value equality with a 1e-9 relative tolerance between numbers
// when either is a float.
func closeEnough(x, y sqltypes.Value) bool {
	if x.IsNull() || y.IsNull() {
		return x.IsNull() && y.IsNull()
	}
	if x.Kind() == sqltypes.KindFloat || y.Kind() == sqltypes.KindFloat {
		if !x.IsNumeric() || !y.IsNumeric() {
			return false
		}
		fx, fy := x.Float(), y.Float()
		scale := math.Max(1, math.Max(math.Abs(fx), math.Abs(fy)))
		return math.Abs(fx-fy) <= 1e-9*scale
	}
	return sqltypes.Identical(x, y)
}
