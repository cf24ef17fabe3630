package listset

import (
	"math/rand"
	"strings"
	"testing"
)

// testShards is the shard count of every sharded form the suites build.
const testShards = 4

// forms returns every non-nil form of the registry row im, each as an
// Impl whose New builds that form: the plain row, "-arena" (NewArena),
// "-sharded" (NewSharded) and "-sharded-arena" (NewShardedArena). A
// sharded form partitions [lo, hi) — the calling suite's own key range
// — across testShards shards, so the suite's keys straddle shard seams
// instead of all landing in one shard. An arena form's NewSharded is
// the row's NewShardedArena, so a test that builds its own partition
// keeps the form's memory mode.
func forms(im Impl, lo, hi int64) []Impl {
	partition := func(mk func(int, int64, int64) Set) func() Set {
		if mk == nil {
			return nil
		}
		return func() Set { return mk(testShards, lo, hi) }
	}
	form := func(suffix string, mk func() Set, sharded func(int, int64, int64) Set) Impl {
		f := im
		f.Name, f.New, f.NewSharded = im.Name+suffix, mk, sharded
		f.NewArena, f.NewShardedArena = nil, nil
		return f
	}
	var out []Impl
	for _, f := range []Impl{
		form("", im.New, im.NewSharded),
		form("-arena", im.NewArena, im.NewShardedArena),
		form("-sharded", partition(im.NewSharded), im.NewSharded),
		form("-sharded-arena", partition(im.NewShardedArena), im.NewShardedArena),
	} {
		if f.New != nil {
			out = append(out, f)
		}
	}
	return out
}

// allForms returns every form of every registered implementation, with
// the sharded forms partitioning [lo, hi).
func allForms(lo, hi int64) []Impl {
	var out []Impl
	for _, im := range Implementations() {
		out = append(out, forms(im, lo, hi)...)
	}
	return out
}

// forEachImpl runs f as a subtest for every form of every registered
// implementation, the sharded forms partitioning the test's key range
// [lo, hi).
func forEachImpl(t *testing.T, lo, hi int64, f func(t *testing.T, im Impl)) {
	t.Helper()
	for _, im := range allForms(lo, hi) {
		im := im
		t.Run(im.Name, func(t *testing.T) { f(t, im) })
	}
}

// forEachConcurrentImpl is forEachImpl restricted to thread-safe
// implementations.
func forEachConcurrentImpl(t *testing.T, lo, hi int64, f func(t *testing.T, im Impl)) {
	t.Helper()
	for _, im := range allForms(lo, hi) {
		if !im.ThreadSafe {
			continue
		}
		im := im
		t.Run(im.Name, func(t *testing.T) { f(t, im) })
	}
}

// TestFormsCoverEveryComposition pins the forms helper to the registry:
// every non-nil constructor of a row yields exactly one form, and every
// sharded form splits the suite's key range across at least two shards
// (a partition over a wider default range would put every test key in
// shard 0 and leave the seams untested).
func TestFormsCoverEveryComposition(t *testing.T) {
	const lo, hi = 0, 12
	for _, im := range Implementations() {
		want := 1
		for _, mk := range []bool{im.NewArena != nil, im.NewSharded != nil, im.NewShardedArena != nil} {
			if mk {
				want++
			}
		}
		fs := forms(im, lo, hi)
		if len(fs) != want {
			t.Errorf("%s: %d forms, want %d (one per non-nil constructor)", im.Name, len(fs), want)
		}
		for _, f := range fs {
			b, ok := f.New().(interface{ Boundaries() []int64 })
			if sharded := strings.Contains(f.Name, "-sharded"); ok != sharded {
				t.Errorf("%s: builds a sharded façade = %v, want %v", f.Name, ok, sharded)
			}
			if !ok {
				continue
			}
			if bs := b.Boundaries(); len(bs) != testShards || bs[1] >= hi {
				t.Errorf("%s: boundaries %v do not split [%d, %d) across %d shards", f.Name, bs, lo, hi, testShards)
			}
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, im := range Implementations() {
		// Compositions are forms of a row, never rows: a composite name
		// would also collide with the forms' subtest names.
		for _, name := range append([]string{im.Name}, im.Aliases...) {
			if strings.HasSuffix(name, "-sharded") || strings.HasSuffix(name, "-arena") {
				t.Errorf("registry name %q names a composition; use the row's constructors", name)
			}
		}
		got, err := Lookup(im.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", im.Name, err)
		}
		if got.Name != im.Name {
			t.Fatalf("Lookup(%q) resolved to %q", im.Name, got.Name)
		}
		for _, alias := range im.Aliases {
			got, err := Lookup(alias)
			if err != nil {
				t.Fatalf("Lookup(alias %q): %v", alias, err)
			}
			if got.Name != im.Name {
				t.Fatalf("Lookup(alias %q) resolved to %q, want %q", alias, got.Name, im.Name)
			}
		}
	}
	if _, err := Lookup("no-such-list"); err == nil {
		t.Fatal("Lookup of unknown name did not error")
	}
	if _, err := Lookup("VBL"); err != nil {
		t.Fatalf("Lookup should be case-insensitive: %v", err)
	}
}

func TestRegistryConstructorsIndependent(t *testing.T) {
	forEachImpl(t, 0, 8, func(t *testing.T, im Impl) {
		a, b := im.New(), im.New()
		a.Insert(7)
		if b.Contains(7) {
			t.Fatal("two instances from the same constructor share state")
		}
	})
}

func TestEmptySet(t *testing.T) {
	forEachImpl(t, 0, 8, func(t *testing.T, im Impl) {
		s := im.New()
		if s.Len() != 0 {
			t.Fatalf("Len() of empty set = %d", s.Len())
		}
		if s.Contains(1) {
			t.Fatal("empty set Contains(1) = true")
		}
		if s.Remove(1) {
			t.Fatal("empty set Remove(1) = true")
		}
		if snap := s.Snapshot(); len(snap) != 0 {
			t.Fatalf("empty set Snapshot() = %v", snap)
		}
	})
}

func TestBasicSemantics(t *testing.T) {
	forEachImpl(t, 0, 8, func(t *testing.T, im Impl) {
		s := im.New()
		if !s.Insert(5) {
			t.Fatal("Insert(5) on empty set = false")
		}
		if s.Insert(5) {
			t.Fatal("second Insert(5) = true")
		}
		if !s.Contains(5) {
			t.Fatal("Contains(5) = false after insert")
		}
		if s.Contains(4) || s.Contains(6) {
			t.Fatal("Contains of absent neighbours = true")
		}
		if !s.Insert(3) || !s.Insert(7) || !s.Insert(4) {
			t.Fatal("fresh inserts returned false")
		}
		wantSnap := []int64{3, 4, 5, 7}
		snap := s.Snapshot()
		if len(snap) != len(wantSnap) {
			t.Fatalf("Snapshot = %v, want %v", snap, wantSnap)
		}
		for i := range wantSnap {
			if snap[i] != wantSnap[i] {
				t.Fatalf("Snapshot = %v, want %v", snap, wantSnap)
			}
		}
		if !s.Remove(4) {
			t.Fatal("Remove(4) = false")
		}
		if s.Remove(4) {
			t.Fatal("second Remove(4) = true")
		}
		if s.Contains(4) {
			t.Fatal("Contains(4) = true after removal")
		}
		if s.Len() != 3 {
			t.Fatalf("Len = %d, want 3", s.Len())
		}
		// Reinsertion after removal must succeed (exercises logical
		// deletion + value-aware revalidation paths).
		if !s.Insert(4) {
			t.Fatal("reinsert of removed value = false")
		}
		if !s.Contains(4) {
			t.Fatal("Contains(4) = false after reinsert")
		}
	})
}

func TestNegativeKeysAndExtremes(t *testing.T) {
	forEachImpl(t, MinKey, MaxKey, func(t *testing.T, im Impl) {
		s := im.New()
		vals := []int64{MinKey, -12345, -1, 0, 1, 12345, MaxKey}
		for _, v := range vals {
			if !s.Insert(v) {
				t.Fatalf("Insert(%d) = false", v)
			}
		}
		for _, v := range vals {
			if !s.Contains(v) {
				t.Fatalf("Contains(%d) = false", v)
			}
		}
		if s.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(vals))
		}
		snap := s.Snapshot()
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				t.Fatalf("Snapshot not strictly ascending: %v", snap)
			}
		}
		for _, v := range vals {
			if !s.Remove(v) {
				t.Fatalf("Remove(%d) = false", v)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("Len after removing all = %d", s.Len())
		}
	})
}

// TestMapOracle drives each implementation single-threaded against a map
// with a long random operation sequence.
func TestMapOracle(t *testing.T) {
	forEachImpl(t, -64, 64, func(t *testing.T, im Impl) {
		rng := rand.New(rand.NewSource(42))
		s := im.New()
		oracle := map[int64]bool{}
		for i := 0; i < 30000; i++ {
			v := int64(rng.Intn(128)) - 64
			switch rng.Intn(3) {
			case 0:
				want := !oracle[v]
				if got := s.Insert(v); got != want {
					t.Fatalf("step %d: Insert(%d) = %v, want %v", i, v, got, want)
				}
				oracle[v] = true
			case 1:
				want := oracle[v]
				if got := s.Remove(v); got != want {
					t.Fatalf("step %d: Remove(%d) = %v, want %v", i, v, got, want)
				}
				delete(oracle, v)
			case 2:
				if got := s.Contains(v); got != oracle[v] {
					t.Fatalf("step %d: Contains(%d) = %v, want %v", i, v, got, oracle[v])
				}
			}
		}
		if s.Len() != len(oracle) {
			t.Fatalf("final Len = %d, want %d", s.Len(), len(oracle))
		}
		snap := s.Snapshot()
		if len(snap) != len(oracle) {
			t.Fatalf("final Snapshot has %d elements, want %d", len(snap), len(oracle))
		}
		for _, v := range snap {
			if !oracle[v] {
				t.Fatalf("Snapshot contains %d which the oracle lacks", v)
			}
		}
	})
}

// TestShardedBoundaryOracle drives every implementation's sharded form
// with a tight partition (4 shards over [0, 32), boundaries at 8, 16,
// 24) against a map oracle, biasing keys to land on and around the
// shard boundaries and outside the focus range, so routing errors at
// the seams — a key owned by two shards, or by none — surface as
// semantic failures.
func TestShardedBoundaryOracle(t *testing.T) {
	forEachImpl(t, 0, 32, func(t *testing.T, im Impl) {
		if im.NewSharded == nil {
			t.Skip("no sharded form")
		}
		s := im.NewSharded(4, 0, 32)
		rng := rand.New(rand.NewSource(7))
		// Candidate keys cluster on the boundaries ±1, the focus edges,
		// and a few keys beyond them (clamped to the edge shards).
		candidates := []int64{
			-40, -1, 0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 30, 31, 32, 33, 90,
		}
		oracle := map[int64]bool{}
		for i := 0; i < 20000; i++ {
			v := candidates[rng.Intn(len(candidates))]
			switch rng.Intn(3) {
			case 0:
				want := !oracle[v]
				if got := s.Insert(v); got != want {
					t.Fatalf("step %d: Insert(%d) = %v, want %v", i, v, got, want)
				}
				oracle[v] = true
			case 1:
				want := oracle[v]
				if got := s.Remove(v); got != want {
					t.Fatalf("step %d: Remove(%d) = %v, want %v", i, v, got, want)
				}
				delete(oracle, v)
			case 2:
				if got := s.Contains(v); got != oracle[v] {
					t.Fatalf("step %d: Contains(%d) = %v, want %v", i, v, got, oracle[v])
				}
			}
		}
		if s.Len() != len(oracle) {
			t.Fatalf("final Len = %d, want %d", s.Len(), len(oracle))
		}
		snap := s.Snapshot()
		for i := 1; i < len(snap); i++ {
			if snap[i-1] >= snap[i] {
				t.Fatalf("Snapshot not strictly ascending across shard seams: %v", snap)
			}
		}
		for _, v := range snap {
			if !oracle[v] {
				t.Fatalf("Snapshot contains %d which the oracle lacks", v)
			}
		}
	})
}

// TestGrowShrinkCycles fills and drains the set repeatedly, a pattern
// that exercises unlink-behind-traversal paths.
func TestGrowShrinkCycles(t *testing.T) {
	forEachImpl(t, 0, 300, func(t *testing.T, im Impl) {
		s := im.New()
		const n = 300
		for cycle := 0; cycle < 4; cycle++ {
			for i := int64(0); i < n; i++ {
				if !s.Insert(i) {
					t.Fatalf("cycle %d: Insert(%d) = false", cycle, i)
				}
			}
			if s.Len() != n {
				t.Fatalf("cycle %d: Len = %d, want %d", cycle, s.Len(), n)
			}
			// Drain in an order that alternates ends to vary windows.
			for i := int64(0); i < n/2; i++ {
				if !s.Remove(i) || !s.Remove(n-1-i) {
					t.Fatalf("cycle %d: Remove pair %d failed", cycle, i)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("cycle %d: Len after drain = %d", cycle, s.Len())
			}
		}
	})
}
