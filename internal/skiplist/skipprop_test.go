package skiplist

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"listset/internal/failpoint"
	"listset/internal/trylock"
)

// Property tests for the skip lists' probabilistic and reclamation
// machinery: randomHeight must be geometric(1/2) from any seed state
// (the O(log n) expected-cost argument depends on it, not on one lucky
// seed), and the tower arena must recycle without ever recycling more
// than it retired.

// TestRandomHeightGeometricQuick is a quick.Check property: from an
// arbitrary seed position, a block of randomHeight draws looks
// geometric with ratio 1/2 — each level's survivor count is about half
// the previous level's, heights stay within [1, levels], and the cap
// level absorbs the tail. Checked for both skip lists so neither can
// drift to a different ratio (which would silently change the
// height-class arena's size-class economics).
func TestRandomHeightGeometricQuick(t *testing.T) {
	const draws = 1 << 13
	check := func(name string, levels int, draw func() int) bool {
		counts := make([]int, levels+2)
		for i := 0; i < draws; i++ {
			h := draw()
			if h < 1 || h > levels {
				t.Errorf("%s: randomHeight = %d outside [1, %d]", name, h, levels)
				return false
			}
			counts[h]++
		}
		// Survivors at height >= h halve per level while the sample is
		// large enough for the tolerance to be meaningful.
		ge := draws
		for h := 1; h <= 6 && ge >= 512; h++ {
			next := ge - counts[h]
			if f := float64(next) / float64(ge); f < 0.38 || f > 0.62 {
				t.Errorf("%s: P(height > %d | height >= %d) = %.3f, want ~0.5", name, h, h, f)
				return false
			}
			ge = next
		}
		return true
	}
	prop := func(seed uint64) bool {
		vb := NewVB()
		vb.seed.Store(seed)
		lz := NewLazy()
		lz.seed.Store(seed)
		return check("VB", vb.levels, vb.randomHeight) &&
			check("Lazy", lz.levels, lz.randomHeight)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRandomHeightHonorsLevels pins the configurable cap: a list built
// with fewer levels never draws a taller tower, so raising
// DefaultLevels for 66M-key ranges cannot leak tall towers into
// small-level instances sharing the same array capacity.
func TestRandomHeightHonorsLevels(t *testing.T) {
	for _, levels := range []int{1, 2, 4, DefaultLevels, maxLevel} {
		s := NewVBLevels(levels)
		if s.Levels() != levels {
			t.Fatalf("Levels() = %d, want %d", s.Levels(), levels)
		}
		for i := 0; i < 20000; i++ {
			if h := s.randomHeight(); h < 1 || h > levels {
				t.Fatalf("levels=%d: randomHeight = %d", levels, h)
			}
		}
	}
}

// TestVBArenaChurnRecycles drives the arena-backed skip list through
// enough insert/remove churn — concurrent, then quiescent — that
// retired towers pass their grace period and come back through the
// height-classed free lists, then checks the reclamation ledger
// (Recycled <= Retired always; the quiescent phase must actually
// retire) and the structure invariants after all that recycling.
func TestVBArenaChurnRecycles(t *testing.T) {
	s := NewVBArena()
	const keyRange = 128
	var wg sync.WaitGroup
	workers := 6
	perWorker := 8000
	if testing.Short() {
		workers, perWorker = 4, 2000
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				k := int64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					s.Insert(k)
				case 1:
					s.Remove(k)
				default:
					s.Contains(k)
				}
			}
		}(int64(g) + 41)
	}
	wg.Wait()

	// Quiescent churn: single-threaded insert/remove rounds unlink every
	// tower fully, so retirement is guaranteed to fire, and the repeated
	// rounds force recycled towers back into service at fresh heights.
	for round := 0; round < 8; round++ {
		for k := int64(0); k < keyRange; k++ {
			s.Insert(k)
		}
		for k := int64(0); k < keyRange; k++ {
			s.Remove(k)
		}
	}
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("NewVBArena reports no arena")
	}
	if st.Retired == 0 {
		t.Fatal("quiescent churn retired no towers; the linked-mask retire protocol never fired")
	}
	if st.Recycled > st.Retired {
		t.Fatalf("Recycled (%d) > Retired (%d): a tower was freed twice", st.Recycled, st.Retired)
	}
	if st.Allocs == 0 || st.Slabs == 0 {
		t.Fatalf("implausible arena ledger after churn: %+v", st)
	}

	// The survivor set must still be a well-formed skip list.
	for k := int64(0); k < keyRange; k++ {
		if s.Contains(k) {
			t.Fatalf("key %d survived a full remove round", k)
		}
		s.Insert(k)
	}
	snap := s.Snapshot()
	if len(snap) != keyRange {
		t.Fatalf("Snapshot has %d keys, want %d", len(snap), keyRange)
	}
	for i := range snap {
		if snap[i] != int64(i) {
			t.Fatalf("Snapshot[%d] = %d after recycling churn", i, snap[i])
		}
	}
}

// TestVBArenaBatchChurn runs the finger-seeded batch passes over the
// arena-backed variant: recycled towers must be just as adoptable as
// fresh ones, and the ledger stays consistent.
func TestVBArenaBatchChurn(t *testing.T) {
	s := NewVBArena()
	const n = 256
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		if got := s.InsertAll(keys); got != n {
			t.Fatalf("round %d: InsertAll = %d, want %d", round, got, n)
		}
		if got := s.ContainsAll(keys); got != n {
			t.Fatalf("round %d: ContainsAll = %d, want %d", round, got, n)
		}
		scan := s.RangeScan(0, n)
		if len(scan) != n {
			t.Fatalf("round %d: RangeScan returned %d keys, want %d", round, len(scan), n)
		}
		if got := s.RemoveAll(keys); got != n {
			t.Fatalf("round %d: RemoveAll = %d, want %d", round, got, n)
		}
		if s.Len() != 0 {
			t.Fatalf("round %d: Len = %d after RemoveAll", round, s.Len())
		}
	}
	st, ok := s.ArenaStats()
	if !ok {
		t.Fatal("NewVBArena reports no arena")
	}
	if st.Recycled > st.Retired {
		t.Fatalf("Recycled (%d) > Retired (%d)", st.Recycled, st.Retired)
	}
	if st.Retired == 0 {
		t.Fatal("batch churn retired nothing")
	}
}

// TestGivenUpIndexLevelsParkOnTail pins the stale-pointer invariant
// behind the arena's safety argument: when linkIndex gives up on an
// index level (here: the link site forced to fail on every hit), the
// live tower's pointer at that level must be parked on tail, never
// left frozen at the speculative succ from insert time. Descents read
// next[j] for every level below the adoption level whether or not it
// was linked, and a frozen succ could be unlinked, retired and — with
// an arena attached — recycled into a value-order-breaking edge.
func TestGivenUpIndexLevelsParkOnTail(t *testing.T) {
	s := NewVB()
	fps := failpoint.NewSet()
	if err := fps.Arm(failpoint.Scenario{
		Site:        failpoint.SiteSkipIndexLink,
		Action:      failpoint.ActFail,
		Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s.SetFailpoints(fps)
	for v := int64(0); v < 512; v++ {
		if !s.Insert(v) {
			t.Fatalf("Insert(%d) = false on empty slot", v)
		}
	}
	tall := 0
	for curr := s.head.next[0].Load(); curr != s.tail; curr = curr.next[0].Load() {
		if got := curr.linked.Load(); got != 1 {
			t.Fatalf("tower %d linked mask = %b, want exactly bit 0 with the index link site failing", curr.val, got)
		}
		for l := 1; l < curr.height; l++ {
			tall++
			if got := curr.next[l].Load(); got != s.tail {
				t.Fatalf("given-up level %d of tower %d holds %d, want tail", l, curr.val, got.val)
			}
		}
	}
	if tall == 0 {
		t.Fatal("no tower drew height > 1 in 512 inserts; the invariant was never exercised")
	}
}

// fireCounter is a failpoint.Sink counting fired arms.
type fireCounter struct{ fired int }

func (c *fireCounter) FailpointFired(failpoint.Site, failpoint.Action, int64) { c.fired++ }
func (c *fireCounter) FailpointReleased(failpoint.Site, int64)                {}

// TestSweepCollectsMaxKeyOrphan pins orphan collection at the top key:
// find(v) only unlinks deleted towers on its way to a larger key, so a
// remover's sweep that gave a level up would leave the maximum key's
// tower linked for good — and, with an arena, never retired. The index
// link site is forced to fail on half of the sweep's hits for that key;
// the sweep must retry through the injected failures until the tower
// is unlinked from every level, then retire it. Under a probability-1
// arm the sweep must still terminate.
func TestSweepCollectsMaxKeyOrphan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     *VB
		p     float64
		clean bool
	}{
		{"gc", NewVB(), 0.5, true},
		{"arena", NewVBArena(), 0.5, true},
		{"arena/always-fail", NewVBArena(), 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			for v := int64(0); v < 256; v++ {
				s.Insert(v)
			}
			// Make the last tall tower the maximum key.
			var top *vbNode
			for curr := s.head.next[0].Load(); curr != s.tail; curr = curr.next[0].Load() {
				if curr.height > 1 {
					top = curr
				}
			}
			if top == nil {
				t.Fatal("no tower drew height > 1 in 256 inserts")
			}
			for v := top.val + 1; v < 256; v++ {
				s.Remove(v)
			}
			if got, want := top.linked.Load(), uint32(1)<<uint(top.height)-1; got != want {
				t.Fatalf("tower %d linked mask = %b before removal, want %b", top.val, got, want)
			}
			fps := failpoint.NewSet()
			var fires fireCounter
			fps.SetSink(&fires)
			if err := fps.Arm(failpoint.Scenario{
				Site:        failpoint.SiteSkipIndexLink,
				Action:      failpoint.ActFail,
				Probability: tc.p,
				Keys:        []int64{top.val},
				Seed:        3,
			}); err != nil {
				t.Fatal(err)
			}
			s.SetFailpoints(fps)
			if !s.Remove(top.val) {
				t.Fatalf("Remove(%d) = false", top.val)
			}
			if fires.fired == 0 {
				t.Fatal("the index link failpoint never fired; the sweep's retry path went unexercised")
			}
			if !tc.clean {
				return // termination was the point
			}
			if got := top.linked.Load(); got != 0 {
				t.Fatalf("removed tower %d still linked at levels %b", top.val, got)
			}
			for l := 1; l < maxLevel; l++ {
				for curr := s.head.next[l].Load(); curr != s.tail; curr = curr.next[l].Load() {
					if curr == top {
						t.Fatalf("removed tower %d reachable at level %d", top.val, l)
					}
				}
			}
			if s.arena != nil && !top.retired.Load() {
				t.Fatalf("removed tower %d unlinked everywhere but never retired", top.val)
			}
		})
	}
}

// TestInsertWaitsOutInFlightRemove pins the linearization point readers
// and writers share: a remover marks its tower deleted and only then
// stores the level-0 unlink, and Contains already reports v absent in
// between. An insert landing in that window must not report v present
// (contains-false then insert-false with no insert between is not
// linearizable); it must wait for the removal to finish and then
// insert. The window is frozen by holding the remover's two locks; the
// try-lock acquisition site shows the insert reached the pred lock
// instead of answering early.
func TestInsertWaitsOutInFlightRemove(t *testing.T) {
	for _, tc := range []struct {
		name   string
		insert func(s *VB, v int64) bool
	}{
		{"Insert", func(s *VB, v int64) bool { return s.Insert(v) }},
		{"InsertAll", func(s *VB, v int64) bool { return s.InsertAll([]int64{v}) == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewVB()
			s.Insert(5)
			d := s.head.next[0].Load()
			// A remover inside its critical section: both locks held,
			// the tower marked, the level-0 unlink not yet stored.
			s.head.lock.Lock()
			d.lock.Lock()
			d.deleted.Store(true)
			if s.Contains(5) {
				t.Fatal("Contains(5) = true for a tower marked deleted")
			}
			fps := failpoint.NewSet()
			pause, err := fps.PauseAt(failpoint.SiteTryLockAcquire)
			if err != nil {
				t.Fatal(err)
			}
			trylock.SetChaos(fps)
			defer trylock.SetChaos(nil)
			res := make(chan bool, 1)
			go func() { res <- tc.insert(s, 5) }()
			select {
			case got := <-res:
				t.Fatalf("insert of 5 = %v during 5's removal, after Contains(5) = false; want it to wait for the removal", got)
			case <-pause.Reached():
			}
			// Finish the removal as Remove does, then let the insert run.
			s.head.next[0].Store(d.next[0].Load())
			d.clearLinked(0)
			d.lock.Unlock()
			s.head.lock.Unlock()
			pause.Resume()
			if !<-res {
				t.Fatal("insert of 5 = false after the removal completed")
			}
			if !s.Contains(5) {
				t.Fatal("Contains(5) = false after the insert")
			}
		})
	}
}
