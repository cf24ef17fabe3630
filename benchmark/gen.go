package main

import "math/bits"

// Op is one kind of call the workers issue. On a batch workload the
// three point kinds become their 64-key batch forms.
type Op uint8

const (
	OpContains Op = iota
	OpInsert
	OpRemove
	OpScan
	numOps
)

var opNames = [numOps]string{"contains", "insert", "remove", "range_scan"}

func (o Op) String() string { return opNames[o] }

// Gen is the benchmark's own seeded operation/key stream: splitmix64,
// so a seed fixes every op and key a worker draws, independently of
// the repository's workload package. A Gen is owned by one worker and
// never allocates.
type Gen struct {
	state uint64
	cum   [numOps]uint64 // cumulative mix thresholds out of 100
	keys  uint64         // keys are uniform in [0, keys)
}

// NewGen returns the stream for one worker of a workload under seed.
func NewGen(seed uint64, worker int, w *Workload) Gen {
	g := Gen{state: mix64(seed ^ uint64(worker+1)*0xD1B54A32D192ED03), keys: uint64(w.KeyRange)}
	var acc uint64
	for i, pct := range w.Mix {
		acc += uint64(pct)
		g.cum[i] = acc
	}
	return g
}

func (g *Gen) next() uint64 {
	g.state += 0x9E3779B97F4A7C15
	return mix64(g.state)
}

// Op draws the next call kind according to the workload's mix.
func (g *Gen) Op() Op {
	r, _ := bits.Mul64(g.next(), 100)
	for i, c := range g.cum {
		if r < c {
			return Op(i)
		}
	}
	return OpContains // unreachable: a validated mix sums to 100
}

// Key draws the next key, uniform in [0, KeyRange).
func (g *Gen) Key() int64 {
	k, _ := bits.Mul64(g.next(), g.keys)
	return int64(k)
}

// Fill overwrites keys with fresh draws.
func (g *Gen) Fill(keys []int64) {
	for i := range keys {
		keys[i] = g.Key()
	}
}

// InitialKeys returns, ascending, the keys the set starts with:
// exactly half of [0, keyRange), drawn uniformly by selection
// sampling. Each key is present with probability ½, and every seed
// starts from the same size: on list-contention's 256 keys a size
// left to chance would vary by ±12% and move setup_s with the seed.
func InitialKeys(seed uint64, keyRange int64) []int64 {
	want := keyRange / 2
	out := make([]int64, 0, want)
	g := Gen{state: mix64(seed ^ 0x5851F42D4C957F2D)}
	for k := int64(0); k < keyRange; k++ {
		// Keep k with probability (keys still wanted) / (keys left).
		r, _ := bits.Mul64(g.next(), uint64(keyRange-k))
		if int64(r) < want-int64(len(out)) {
			out = append(out, k)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
