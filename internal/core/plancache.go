package core

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

// PlanCache memoizes rewrite results across repeated queries (multi-query
// workloads re-issue the same report queries constantly; matching every AST
// every time is pure overhead). It is a bounded LRU keyed by the normalized
// query SQL plus a freshness fingerprint of the candidate AST set. It only
// memoizes RewriteOrFallback's plan choice: passing a nil *PlanCache to
// RewriteSQLCached disables caching and changes nothing else.
//
// The fingerprint is what makes a hit safe: it folds in every candidate's
// name, refresh epoch, stale flag, and quarantine flag (plus the rewriter's
// AllowStale policy). Any status transition — MarkStale, MarkFresh (which
// bumps the epoch), quarantine — changes the fingerprint and therefore the
// key, so a cached plan can never serve a stale AST that Options.AllowStale
// would refuse: the stale-era entry simply stops being found and ages out.
//
// Concurrency: the cache is striped. Keys hash (FNV-1a over the full key,
// fingerprint included) onto independent LRU shards, each behind its own
// mutex, so concurrent sessions hitting different queries never contend on
// one lock; lifetime statistics are lock-free atomics. Small caches
// (capacity < planCacheStripeMin) collapse to a single shard, which keeps
// exact global LRU order where capacity is tight enough for eviction order
// to be observable. The freshness-fingerprint contract is untouched by
// striping: invalidation is by key construction, not by mutation, and a
// status transition re-keys the entry — possibly onto a different shard —
// while the stale-era entry ages out of its own shard's LRU.
type PlanCache struct {
	shards []planShard

	hits, misses, evictions atomic.Int64
}

// planShard is one independent LRU stripe of the cache.
type planShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	// Pad to a cache line so neighboring shards' mutexes do not false-share.
	_ [64]byte
}

type cacheEntry struct {
	key  string
	plan *qgm.Graph // pristine copy; cloned on every hit
	ast  string     // AST name the plan reads; "" = base plan
}

// DefaultPlanCacheSize bounds a cache constructed with capacity <= 0.
const DefaultPlanCacheSize = 256

// planCacheStripes is the shard count for caches large enough to stripe
// (power of two, so shard selection is a mask).
const planCacheStripes = 16

// planCacheStripeMin is the smallest capacity that stripes: below it a
// per-shard capacity would round to a handful of entries and hash skew could
// evict hot plans a global LRU would keep.
const planCacheStripeMin = 4 * planCacheStripes

// NewPlanCache returns an empty cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	n := 1
	if capacity >= planCacheStripeMin {
		n = planCacheStripes
	}
	c := &PlanCache{shards: make([]planShard, n)}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i] = planShard{cap: sc, ll: list.New(), byKey: map[string]*list.Element{}}
	}
	return c
}

// shard maps a key to its stripe by FNV-1a hash. The fingerprint prefix is
// part of the hashed key, so a status transition re-keys (and may re-shard)
// an entry — exactly the invalidation-by-construction the fingerprint
// contract relies on.
func (c *PlanCache) shard(key string) *planShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h&uint64(len(c.shards)-1)]
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns lifetime hit and miss counts.
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many entries capacity pressure has evicted over the
// cache's lifetime.
func (c *PlanCache) Evictions() int64 {
	return c.evictions.Load()
}

// get returns a private clone of the cached plan for key, promoting the entry.
func (c *PlanCache) get(key string) (*qgm.Graph, string, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, "", false
	}
	s.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	plan, ast := ent.plan, ent.ast
	s.mu.Unlock()
	c.hits.Add(1)
	// Clone outside the lock: callers execute (and may mutate) their copy,
	// the cached plan stays pristine.
	return plan.Clone(), ast, true
}

// put stores a private clone of plan under key, evicting the least recently
// used entries of the key's shard past its capacity; it returns how many
// entries were evicted.
func (c *PlanCache) put(key string, plan *qgm.Graph, ast string) int {
	stored := plan.Clone()
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*cacheEntry).plan = stored
		el.Value.(*cacheEntry).ast = ast
		s.mu.Unlock()
		return 0
	}
	s.byKey[key] = s.ll.PushFront(&cacheEntry{key: key, plan: stored, ast: ast})
	evicted := 0
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.byKey, back.Value.(*cacheEntry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
	return evicted
}

// NormalizeSQL canonicalizes a query string for cache keying: runs of
// whitespace collapse to one space and keywords/identifiers fold to lower
// case — but the contents of single-quoted string literals are preserved
// byte-for-byte, so `WHERE region = 'CA'` and `where region = 'ca'` remain
// distinct queries.
func NormalizeSQL(sql string) string {
	var sb strings.Builder
	sb.Grow(len(sql))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		ch := sql[i]
		if inStr {
			sb.WriteByte(ch)
			if ch == '\'' {
				inStr = false
			}
			continue
		}
		switch {
		case ch == '\'':
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			inStr = true
			sb.WriteByte(ch)
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			pendingSpace = true
		default:
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			if 'A' <= ch && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			sb.WriteByte(ch)
		}
	}
	return sb.String()
}

// cacheKey builds the cache key for one query against the current AST set:
// normalized SQL plus the sorted per-AST freshness fingerprint and the
// staleness policy in force.
func (rw *Rewriter) cacheKey(sql string, asts []*CompiledAST) string {
	parts := make([]string, 0, len(asts))
	for _, ast := range asts {
		st := rw.cat.Status(ast.Def.Name)
		parts = append(parts, fmt.Sprintf("%s:%d:%t:%t", ast.Def.Name, st.Epoch, st.Stale, st.Quarantined))
	}
	sort.Strings(parts)
	return fmt.Sprintf("allowstale=%t|%s|%s", rw.opts.AllowStale, strings.Join(parts, ";"), NormalizeSQL(sql))
}

// CachedRewrite is the outcome of a cache-aware rewrite.
type CachedRewrite struct {
	// Plan is runnable and owned by the caller (on a hit it is a fresh clone
	// of the cached plan).
	Plan *qgm.Graph
	// AST names the summary table the plan reads; "" means the base plan.
	AST string
	// Hit reports whether the plan came from the cache (no matching ran).
	Hit bool
	// Rewrite carries the match details on a cache miss that rewrote; nil on
	// hits and on base plans.
	Rewrite *Result
}

// RewriteSQLCached answers "what plan should run for this SQL" through the
// cache: on a hit it returns a clone of the cached plan without running the
// matcher at all; on a miss it builds the query, checks the built graph when
// Options.VerifyPlans is on, picks the plan with RewriteOrFallback, and caches
// the outcome — including negative outcomes, so a query no AST serves stops
// paying match overhead too. A nil cache disables caching (no key, no lookup,
// nothing stored), so the plan choice is the same with or without a cache.
// sizer must not be nil.
func (rw *Rewriter) RewriteSQLCached(ctx context.Context, cache *PlanCache, sql string, asts []*CompiledAST, sizer Sizer) (*CachedRewrite, error) {
	span := obs.SpanFromContext(ctx)
	var key string
	if cache != nil {
		lookup := span.Child("plancache.lookup")
		key = rw.cacheKey(sql, asts)
		plan, astName, ok := cache.get(key)
		lookup.End()
		if ok {
			rw.obsv.Add(CtrCacheHits, 1)
			return &CachedRewrite{Plan: plan, AST: astName, Hit: true}, nil
		}
		rw.obsv.Add(CtrCacheMisses, 1)
	}
	parse := span.Child("parse")
	query, err := qgm.BuildSQL(sql, rw.cat)
	parse.End()
	if err != nil {
		return nil, err
	}
	if rw.opts.VerifyPlans {
		if err := qgmcheck.AsError(qgmcheck.Check(query)); err != nil {
			return nil, fmt.Errorf("core: built graph failed verification: %w", err)
		}
	}
	plan, res := rw.RewriteOrFallback(ctx, query, asts, sizer)
	cr := &CachedRewrite{Plan: plan, Rewrite: res}
	if res != nil {
		cr.AST = res.AST.Def.Name
	}
	if cache != nil {
		rw.obsv.Add(CtrCacheEvictions, int64(cache.put(key, plan, cr.AST)))
	}
	return cr, nil
}
