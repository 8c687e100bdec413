package astdb

import (
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

// Typed error surface of the facade. Every error an Engine method returns
// matches at most one of these sentinels under errors.Is, so out-of-process
// consumers — the wire server and the database/sql driver — can map failures
// to protocol error codes without importing internal packages or matching
// message text. The sentinels classify; the wrapped error keeps the detail.
var (
	// ErrBudgetExceeded marks a run that materialized more rows than
	// Config.MaxRows allows.
	ErrBudgetExceeded = exec.ErrBudgetExceeded
	// ErrCanceled marks a run cut short by context cancellation or the
	// Config.Timeout deadline.
	ErrCanceled = exec.ErrCanceled
	// ErrOverloaded marks a request rejected by admission control: every
	// execution slot is busy and the wait queue is full.
	ErrOverloaded = exec.ErrOverloaded
	// ErrParse marks a statement that failed to parse, bind, or type-check.
	ErrParse = errors.New("astdb: statement does not compile")
	// ErrUnknownTable marks a statement naming a table the catalog does not
	// know.
	ErrUnknownTable = errors.New("astdb: unknown table")
	// ErrWriteProtected marks DML targeting a summary table: materializations
	// are system-maintained, and mutating one directly would silently break
	// the freshness contract.
	ErrWriteProtected = errors.New("astdb: summary table is write-protected")
)

// compileError classifies a parse/build failure under the typed surface:
// unknown-table failures (a semantic condition callers routinely probe for)
// keep their own sentinel, everything else — lexer errors, unknown columns,
// type mismatches — is an ErrParse. The original error stays in the chain. A
// built graph failing WithVerifyPlans' check is an engine bug, not a bad
// statement, and stays unclassified.
func compileError(err error) error {
	var verr *qgmcheck.CheckError
	if err == nil || errors.As(err, &verr) {
		return err
	}
	if errors.Is(err, qgm.ErrUnknownTable) {
		return fmt.Errorf("%w: %w", ErrUnknownTable, err)
	}
	return fmt.Errorf("%w: %w", ErrParse, err)
}
