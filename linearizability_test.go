package listset

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"listset/internal/lincheck"
)

// TestLinearizability records real concurrent executions of every
// thread-safe implementation and verifies them with the Wing-Gong
// checker — the executable counterpart of the paper's Theorem 1.
func TestLinearizability(t *testing.T) {
	forEachConcurrentImpl(t, 0, 12, func(t *testing.T, im Impl) {
		for trial := 0; trial < 3; trial++ {
			runLinearizabilityTrial(t, im, int64(trial))
		}
	})
}

func runLinearizabilityTrial(t *testing.T, im Impl, trial int64) {
	t.Helper()
	s := im.New()
	// Pre-populate a known initial state: even keys present.
	const keyRange = 12
	initial := map[int64]bool{}
	for k := int64(0); k < keyRange; k += 2 {
		s.Insert(k)
		initial[k] = true
	}

	rec := lincheck.NewRecorder()
	const goroutines = 6
	sessions := make([]*lincheck.Session, goroutines)
	for i := range sessions {
		sessions[i] = rec.NewSession(s)
	}
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(seed int64, sess *lincheck.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 1500; j++ {
				k := int64(rng.Intn(keyRange))
				switch rng.Intn(4) {
				case 0:
					sess.Insert(k)
				case 1:
					sess.Remove(k)
				default:
					sess.Contains(k)
				}
			}
		}(trial*100+int64(i), sess)
	}
	wg.Wait()
	if err := lincheck.Check(rec.History(), initial); err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
}

// TestLinearizabilitySharded records concurrent executions against
// every sharded form at the tightest partition of the trial's 12-key
// range: one key per shard (16 shards over [0, 12)), so every pair of
// neighbouring keys sits on two sides of a seam. TestLinearizability
// already runs these forms at spans of 4; this pins the composition
// argument (DESIGN.md §8) where it bites hardest.
func TestLinearizabilitySharded(t *testing.T) {
	const tightShards = 16
	for _, f := range allForms(0, 12) {
		if !f.ThreadSafe || !strings.Contains(f.Name, "-sharded") {
			continue
		}
		f, mk := f, f.NewSharded
		f.New = func() Set { return mk(tightShards, 0, 12) }
		t.Run(f.Name+"-tight", func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				runLinearizabilityTrial(t, f, int64(trial))
			}
		})
	}
}

// TestLinearizabilityHighContention narrows the key range to 3 so nearly
// every operation contends — the regime in which validation bugs (lost
// updates, phantom members) would surface.
func TestLinearizabilityHighContention(t *testing.T) {
	forEachConcurrentImpl(t, 0, 3, func(t *testing.T, im Impl) {
		s := im.New()
		rec := lincheck.NewRecorder()
		const goroutines = 8
		sessions := make([]*lincheck.Session, goroutines)
		for i := range sessions {
			sessions[i] = rec.NewSession(s)
		}
		var wg sync.WaitGroup
		for i, sess := range sessions {
			wg.Add(1)
			go func(seed int64, sess *lincheck.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for j := 0; j < 1000; j++ {
					k := int64(rng.Intn(3))
					switch rng.Intn(3) {
					case 0:
						sess.Insert(k)
					case 1:
						sess.Remove(k)
					default:
						sess.Contains(k)
					}
				}
			}(int64(i)+1000, sess)
		}
		wg.Wait()
		if err := lincheck.Check(rec.History(), nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLinearizabilityUpdateOnly removes the read smokescreen: inserts
// and removes only, over two keys, where every anomaly is structural.
func TestLinearizabilityUpdateOnly(t *testing.T) {
	forEachConcurrentImpl(t, 0, 2, func(t *testing.T, im Impl) {
		s := im.New()
		rec := lincheck.NewRecorder()
		const goroutines = 8
		sessions := make([]*lincheck.Session, goroutines)
		for i := range sessions {
			sessions[i] = rec.NewSession(s)
		}
		var wg sync.WaitGroup
		for i, sess := range sessions {
			wg.Add(1)
			go func(seed int64, sess *lincheck.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for j := 0; j < 1200; j++ {
					k := int64(rng.Intn(2))
					if rng.Intn(2) == 0 {
						sess.Insert(k)
					} else {
						sess.Remove(k)
					}
				}
			}(int64(i)+2000, sess)
		}
		wg.Wait()
		if err := lincheck.Check(rec.History(), nil); err != nil {
			t.Fatal(err)
		}
	})
}
