package main

import (
	"context"
	"database/sql"
	"fmt"
	"time"

	"repro/astdb"
	_ "repro/astdb/driver" // registers the "astdb" database/sql driver
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// env is one set-up: a loaded engine with the 14 summary tables and, for
// wire_reads, an in-process server with a two-session database/sql pool.
type env struct {
	db   *astdb.Engine
	srv  *server.Server
	conn *sql.DB
}

// adhocWarmup fills the plan cache with ad-hoc plans before timing.
const adhocWarmup = 256

// setUp builds the common set-up and warms it: the data, the engine, the 14
// materialized summary tables, then one pass of the workload's statements so
// the plan cache holds steady-state plans.
func setUp(ctx context.Context, w string, seed int64) (*env, error) {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: scale, Seed: dataSeed})
	db, err := astdb.Open(cat, astdb.WithStore(store))
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	for _, t := range summaryTables() {
		if _, _, err := db.CreateSummaryTable(ctx, t.name, t.sql); err != nil {
			return nil, fmt.Errorf("create summary table %s: %w", t.name, err)
		}
	}
	e := &env{db: db}
	switch w {
	case "adhoc_reads":
		g := &adhocGen{rng: subRNG(seed, rngWarmup)}
		for i := 0; i < adhocWarmup; i++ {
			if _, err := db.Query(ctx, g.next().sql); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	case "wire_reads":
		if err := e.startWire(ctx); err != nil {
			e.close()
			return nil, err
		}
	default:
		for _, q := range suiteSQL {
			if _, err := db.Query(ctx, q); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

// startWire serves the engine on a loopback port with the zero server.Config
// and warms the client's session with a pass of the suite. The pool holds one
// session: the end-to-end metrics charge each operation the process CPU time
// used while it ran, which holds only while one operation runs at a time.
func (e *env) startWire(ctx context.Context) error {
	e.srv = server.New(e.db, server.Config{})
	addr, err := e.srv.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	e.conn, err = sql.Open("astdb", addr.String())
	if err != nil {
		return fmt.Errorf("open driver: %w", err)
	}
	e.conn.SetMaxOpenConns(1)
	e.conn.SetMaxIdleConns(1)
	e.conn.SetConnMaxLifetime(0)
	for _, q := range suiteSQL {
		rows, err := e.conn.QueryContext(ctx, q)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		rows.Close()
	}
	return nil
}

// close stops the server and the client pool; it returns once the server's
// goroutines have exited.
func (e *env) close() error {
	var err error
	if e.conn != nil {
		err = e.conn.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := e.srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
