package listset

import (
	"fmt"
	"sort"
	"strings"

	"listset/internal/core"
	"listset/internal/harris"
	"listset/internal/lazy"
	"listset/internal/shard"
	"listset/internal/skiplist"
)

// Impl describes one registered set implementation — one row per
// algorithm or ablation — for use by the benchmark harness, the CLI
// tools and cross-implementation tests. The arena-backed and sharded
// compositions are not rows of their own: they are the row's NewArena,
// NewSharded and NewShardedArena constructors. Which optional surfaces
// (Batcher, Ranger, Loader) a built set serves natively is answered by
// a type assertion on the set itself.
type Impl struct {
	// Name is the canonical identifier accepted by the tools' -impl flag.
	Name string
	// Aliases are additional accepted identifiers.
	Aliases []string
	// New constructs a fresh empty instance.
	New func() Set
	// NewSharded, when non-nil, constructs the implementation behind
	// the order-preserving range partitioner of internal/shard: shards
	// independent lists splitting the focus range [lo, hi) evenly, with
	// out-of-range keys clamping to the edge shards, so traversals walk
	// O(n/S) nodes. Callers pass their key range as [lo, hi).
	NewSharded func(shards int, lo, hi int64) Set
	// NewArena, when non-nil, constructs the implementation with
	// arena-backed node lifetimes (internal/mem): slab allocation,
	// per-worker free lists, epoch-based reclamation. Nil means the
	// implementation has no arena mode (e.g. the lock-free lists, whose
	// identity CAS makes node reuse an ABA hazard).
	NewArena func() Set
	// NewShardedArena combines NewSharded and NewArena: one private
	// arena per shard, so allocation stays shard-local. Non-nil only
	// when both modes exist.
	NewShardedArena func(shards int, lo, hi int64) Set
	// ThreadSafe reports whether the implementation may be used from
	// multiple goroutines. Only the sequential reference list is not.
	ThreadSafe bool
	// LockFree reports whether the implementation is lock-free (the
	// progress condition, not merely "uses no sync.Mutex"). The sharded
	// façade adds no locks, so it preserves the property.
	LockFree bool
	// Desc is a one-line human description used in tool output.
	Desc string
}

// sharded builds a row's NewSharded or NewShardedArena constructor from
// the per-shard constructor mk: the one place a composition is spelled
// out.
func sharded(mk func() shard.Set) func(shards int, lo, hi int64) Set {
	return func(shards int, lo, hi int64) Set { return shard.NewRange(shards, lo, hi, mk) }
}

// impls is the registry, in the order used by reports.
var impls = []Impl{
	{
		Name:            "vbl",
		New:             NewVBL,
		NewSharded:      sharded(func() shard.Set { return core.New() }),
		NewArena:        func() Set { return core.NewArena() },
		NewShardedArena: sharded(func() shard.Set { return core.NewArena() }),
		ThreadSafe:      true,
		Desc:            "VBL — concurrency-optimal value-based list (this paper)",
	},
	{
		Name:            "lazy",
		New:             NewLazy,
		NewSharded:      sharded(func() shard.Set { return lazy.New() }),
		NewArena:        func() Set { return lazy.NewArena() },
		NewShardedArena: sharded(func() shard.Set { return lazy.NewArena() }),
		ThreadSafe:      true,
		Desc:            "Lazy Linked List (Heller et al. 2006)",
	},
	{
		Name:       "harris",
		Aliases:    []string{"harris-marker", "harris-rtti"},
		New:        NewHarrisMarker,
		NewSharded: sharded(func() shard.Set { return harris.NewMarker() }),
		ThreadSafe: true,
		LockFree:   true,
		Desc:       "Harris-Michael, RTTI-style marker nodes (paper's optimized Java variant)",
	},
	{
		Name:       "harris-amr",
		New:        NewHarrisAMR,
		ThreadSafe: true,
		LockFree:   true,
		Desc:       "Harris-Michael, AtomicMarkableReference cells (extra indirection)",
	},
	{
		Name:       "fomitchev",
		Aliases:    []string{"fr", "selfish", "backlink"},
		New:        NewFomitchev,
		ThreadSafe: true,
		LockFree:   true,
		Desc:       "Fomitchev-Ruppert backlink list with selfish wait-free contains",
	},
	{
		Name:       "optimistic",
		New:        NewOptimistic,
		ThreadSafe: true,
		Desc:       "Optimistic locking list — lock window, validate by re-traversal",
	},
	{
		Name:       "coarse",
		New:        NewCoarse,
		ThreadSafe: true,
		Desc:       "sequential list behind a single global mutex",
	},
	{
		Name:       "hoh",
		Aliases:    []string{"fine", "hand-over-hand"},
		New:        NewHOH,
		ThreadSafe: true,
		Desc:       "hand-over-hand fine-grained locking list",
	},
	{
		Name:       "seq",
		Aliases:    []string{"sequential", "ll"},
		New:        NewSequential,
		ThreadSafe: false,
		Desc:       "Algorithm 1 — sequential reference list (single goroutine only)",
	},
	{
		Name:            "vbskip",
		Aliases:         []string{"skiplist", "vb-skiplist"},
		New:             NewVBSkip,
		NewSharded:      sharded(func() shard.Set { return skiplist.NewVB() }),
		NewArena:        func() Set { return skiplist.NewVBArena() },
		NewShardedArena: sharded(func() shard.Set { return skiplist.NewVBArena() }),
		ThreadSafe:      true,
		Desc:            "value-aware skip list — §5 conjecture: VBL as the membership level",
	},
	{
		Name:       "lazyskip",
		Aliases:    []string{"lazy-skiplist"},
		New:        NewLazySkip,
		NewSharded: sharded(func() shard.Set { return skiplist.NewLazy() }),
		ThreadSafe: true,
		Desc:       "LazySkipList (Herlihy & Shavit ch. 14.3) — lock-all-preds baseline",
	},
	{
		Name:       "vbl-headrestart",
		New:        NewVBLHeadRestart,
		ThreadSafe: true,
		Desc:       "ablation: VBL restarting failed validations from head",
	},
	{
		Name:       "vbl-noprevalidate",
		New:        NewVBLNoPreValidation,
		ThreadSafe: true,
		Desc:       "ablation: VBL locking before validating (no lock-free pre-check)",
	},
	{
		Name:       "vbl-mutex",
		New:        NewVBLMutex,
		ThreadSafe: true,
		Desc:       "ablation: VBL with sync.Mutex node locks instead of the CAS try-lock",
	},
}

// Implementations returns all registered implementations in report order.
func Implementations() []Impl {
	out := make([]Impl, len(impls))
	copy(out, impls)
	return out
}

// Lookup resolves an implementation by name or alias (case-insensitive).
func Lookup(name string) (Impl, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, im := range impls {
		if im.Name == want {
			return im, nil
		}
		for _, a := range im.Aliases {
			if a == want {
				return im, nil
			}
		}
	}
	var names []string
	for _, im := range impls {
		names = append(names, im.Name)
	}
	sort.Strings(names)
	return Impl{}, fmt.Errorf("listset: unknown implementation %q (have: %s)", name, strings.Join(names, ", "))
}
