// Package trylock provides the CAS-based try-lock that underpins the
// value-aware synchronization of the VBL list (Aksenov et al., PACT 2021).
//
// The paper implements its per-node lock "using compare-and-swap"; this
// package is the direct Go translation: a single-word spin lock whose
// TryLock is one CompareAndSwap, plus a blocking Lock that spins with
// exponential back-off onto the scheduler. A sync.Mutex-backed twin
// (MutexLock) is provided so benchmarks can ablate the choice of lock
// substrate (see BenchmarkAblationLock).
package trylock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A TryLocker is a mutual-exclusion lock that additionally supports a
// non-blocking acquisition attempt.
type TryLocker interface {
	sync.Locker
	// TryLock attempts to acquire the lock without blocking and reports
	// whether it succeeded. On success the caller must eventually Unlock.
	TryLock() bool
}

// SpinLock is a CAS-based spin lock. The zero value is an unlocked lock.
//
// It is intentionally minimal: one word of state, acquisition by a single
// CompareAndSwap, release by a single Store. Under contention Lock yields
// to the Go scheduler between attempts so that spinning goroutines do not
// starve the lock holder on oversubscribed machines (the paper's thread
// counts exceed core counts at the top of its sweeps).
type SpinLock struct {
	state atomic.Int32
}

const (
	unlocked int32 = 0
	locked   int32 = 1
)

// TryLock attempts to acquire l without blocking.
func (l *SpinLock) TryLock() bool {
	return l.state.CompareAndSwap(unlocked, locked)
}

// uniprocessor reports whether only one goroutine can run at a time; in
// that case busy-waiting can never observe the holder make progress, so
// Lock yields immediately instead of spinning.
var uniprocessor = runtime.GOMAXPROCS(0) == 1

// Default bounds of the contended path's exponential backoff. A waiter
// that loses the acquisition CAS watches the lock word for up to its
// current spin budget, doubling the budget each contended round from
// DefaultMinSpin loads up to the ceiling; once the budget is maxed the
// waiter yields to the scheduler between attempts instead of burning
// the core. The doubling desynchronizes waiters — after a release, the
// waiter with the smallest budget retries first while the others are
// still backing off — so N spinners do not stampede the lock word with
// N simultaneous CASes, each of which would bounce the cache line even
// when it fails. The critical sections these locks guard are a handful
// of instructions, so the budget starts small: the lock usually frees
// up within the first round.
const (
	// DefaultMinSpin is the first contended round's spin budget.
	DefaultMinSpin int32 = 4
	// DefaultMaxSpin is the default spin ceiling: the budget at which a
	// waiter stops doubling and starts yielding to the scheduler.
	DefaultMaxSpin int32 = 1 << 9
	// CeilingLimit is the hard upper bound SetCeiling clamps to, so a
	// runaway tuner can never park waiters in a near-unbounded spin.
	CeilingLimit int32 = 1 << 14
)

// Backoff is a per-instance, runtime-tunable backoff policy: the spin
// bounds a SpinLock's contended path uses when acquired through
// LockWith/LockContendedWith. Historically these bounds were package
// constants — process-wide, so two independent sharded sets in one
// process shared backoff state and per-shard tuning was impossible.
// A Backoff is owned by one list (hence one shard); its fields are
// atomics, so a controller (internal/adapt) may retune the ceiling
// while operations are in flight. A nil *Backoff means the package
// defaults; the zero value also behaves as the defaults.
type Backoff struct {
	min atomic.Int32
	max atomic.Int32
}

// NewBackoff returns a policy initialized to the package defaults.
func NewBackoff() *Backoff {
	b := &Backoff{}
	b.min.Store(DefaultMinSpin)
	b.max.Store(DefaultMaxSpin)
	return b
}

// bounds returns the current (min, ceiling) spin bounds, substituting
// the package defaults for a nil policy or unset (zero) fields.
func (b *Backoff) bounds() (int32, int32) {
	if b == nil {
		return DefaultMinSpin, DefaultMaxSpin
	}
	min, max := b.min.Load(), b.max.Load()
	if min <= 0 {
		min = DefaultMinSpin
	}
	if max <= 0 {
		max = DefaultMaxSpin
	}
	return min, max
}

// Ceiling returns the current spin ceiling.
func (b *Backoff) Ceiling() int32 {
	_, max := b.bounds()
	return max
}

// Pause waits out round r of a retry loop that is not a lock
// acquisition (a competitor must finish first): it spins the policy's
// minimum budget doubled r times and, once that reaches the ceiling,
// yields to the scheduler instead — at once on a uniprocessor, where
// the competitor cannot run while we spin.
func (b *Backoff) Pause(r int) {
	min, max := b.bounds()
	if uniprocessor || r >= 31 || int64(min)<<uint(r) >= int64(max) {
		runtime.Gosched()
		return
	}
	for i := min << uint(r); i > 0; i-- {
		pauseSink.Load()
	}
}

// pauseSink is the read-only word Pause's spin loads, so the loop has
// a body the compiler keeps without touching a contended cache line.
var pauseSink atomic.Int32

// SetCeiling sets the spin ceiling, clamped to [DefaultMinSpin,
// CeilingLimit]. Safe to call concurrently with lock operations; a
// waiter mid-backoff picks the new ceiling up on its next round.
func (b *Backoff) SetCeiling(max int32) {
	if max < DefaultMinSpin {
		max = DefaultMinSpin
	}
	if max > CeilingLimit {
		max = CeilingLimit
	}
	b.max.Store(max)
	if b.min.Load() <= 0 {
		b.min.Store(DefaultMinSpin)
	}
}

// Tunable is implemented by sets whose node locks draw their contended
// backoff bounds from a per-set Backoff policy. SetBackoff(nil)
// restores the package defaults; call it before sharing the set (the
// policy's own fields are atomic, so retuning an attached policy is
// safe mid-run).
type Tunable interface {
	SetBackoff(*Backoff)
}

// AttachBackoff connects b to set if the algorithm supports per-
// instance backoff tuning and reports whether it did.
func AttachBackoff(set any, b *Backoff) bool {
	if tu, ok := set.(Tunable); ok {
		tu.SetBackoff(b)
		return true
	}
	return false
}

// Lock acquires l, spinning with bounded exponential backoff until it
// is available.
func (l *SpinLock) Lock() {
	chaosPoint()
	l.lockSlow(DefaultMinSpin, DefaultMaxSpin)
}

// LockWith is Lock drawing its spin bounds from b (nil = defaults).
func (l *SpinLock) LockWith(b *Backoff) {
	chaosPoint()
	min, max := b.bounds()
	l.lockSlow(min, max)
}

// lockSlow is the shared contended-acquisition loop.
func (l *SpinLock) lockSlow(minSpin, maxSpin int32) {
	spin := minSpin
	for {
		if l.TryLock() {
			return
		}
		// On a uniprocessor the holder cannot run while we spin —
		// yield straight away.
		if uniprocessor {
			runtime.Gosched()
			continue
		}
		// Contended: watch the lock word for up to the current budget,
		// leaving early if it frees up, then escalate.
		for i := int32(0); i < spin; i++ {
			if l.state.Load() == unlocked {
				break
			}
		}
		if spin < maxSpin {
			spin <<= 1
		} else {
			runtime.Gosched()
		}
	}
}

// LockContended acquires l like Lock and additionally reports whether
// the immediate first attempt failed — the "try-lock acquisition
// failure" signal the observability layer (internal/obs) counts. The
// extra return is the only difference from Lock; use it at probe-
// enabled call sites and plain Lock everywhere else.
func (l *SpinLock) LockContended() (contended bool) {
	chaosPoint()
	if l.TryLock() {
		return false
	}
	l.lockSlow(DefaultMinSpin, DefaultMaxSpin)
	return true
}

// LockContendedWith is LockContended drawing its spin bounds from b
// (nil = defaults).
func (l *SpinLock) LockContendedWith(b *Backoff) (contended bool) {
	chaosPoint()
	if l.TryLock() {
		return false
	}
	min, max := b.bounds()
	l.lockSlow(min, max)
	return true
}

// Unlock releases l. It must only be called while holding the lock;
// unlocking an unlocked SpinLock panics, mirroring sync.Mutex.
func (l *SpinLock) Unlock() {
	if !l.state.CompareAndSwap(locked, unlocked) {
		panic("trylock: unlock of unlocked SpinLock")
	}
}

// Locked reports whether l is currently held by some goroutine. It is a
// racy snapshot intended for tests and assertions only.
func (l *SpinLock) Locked() bool {
	return l.state.Load() == locked
}

// MutexLock adapts sync.Mutex to TryLocker. It exists so the benchmark
// suite can compare the paper's CAS try-lock against the runtime mutex
// under identical algorithms.
type MutexLock struct {
	mu sync.Mutex
}

// TryLock attempts to acquire l without blocking.
func (l *MutexLock) TryLock() bool { return l.mu.TryLock() }

// Lock acquires l, blocking until it is available.
func (l *MutexLock) Lock() { l.mu.Lock() }

// LockContended acquires l, reporting whether the immediate first
// attempt failed (SpinLock parity for the observability layer).
func (l *MutexLock) LockContended() (contended bool) {
	if l.TryLock() {
		return false
	}
	l.mu.Lock()
	return true
}

// Unlock releases l.
func (l *MutexLock) Unlock() { l.mu.Unlock() }

var (
	_ TryLocker = (*SpinLock)(nil)
	_ TryLocker = (*MutexLock)(nil)
)
