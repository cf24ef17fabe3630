package main

import (
	"fmt"

	"listset"
)

// Build names which Impl constructor field builds a workload's set.
type Build string

const (
	BuildNew          Build = "New"
	BuildSharded      Build = "NewSharded"
	BuildShardedArena Build = "NewShardedArena"
)

// Workload is one closed-loop cell: which set, how it is built, which
// keys and which call mix. README.md gives the reason for each.
type Workload struct {
	Name     string `json:"name"`
	Impl     string `json:"impl"`
	Build    Build  `json:"build"`
	Shards   int    `json:"shards,omitempty"`
	KeyRange int64  `json:"key_range"` // keys uniform in [0, KeyRange); the set starts with each at probability ½
	// Batch is the number of keys per Contains/Insert/Remove call; 0
	// issues single-key calls, otherwise ContainsAll/InsertAll/RemoveAll.
	Batch int         `json:"batch,omitempty"`
	Mix   [numOps]int `json:"mix_pct"` // percent of calls per Op
}

const (
	// workers is the number of closed-loop clients on every workload:
	// the host's nproc.
	workers = 2
	// scanWidth is the width of every RangeScan(lo, lo+scanWidth).
	scanWidth = 100
)

// workloads is the benchmark's workload table.
var workloads = []Workload{
	{
		Name: "list-contention", Impl: "vbl", Build: BuildNew,
		KeyRange: 256, Mix: [numOps]int{9, 45, 45, 1},
	},
	{
		Name: "index-large", Impl: "vbskip", Build: BuildShardedArena, Shards: 16,
		KeyRange: 1 << 20, Mix: [numOps]int{79, 10, 10, 1},
	},
	{
		Name: "batch-scan", Impl: "vbl", Build: BuildSharded, Shards: 16,
		KeyRange: 1 << 14, Batch: 64, Mix: [numOps]int{70, 10, 10, 10},
	},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// constructor resolves the workload's set constructor: the one place
// the benchmark builds sets, through the registry.
func (w *Workload) constructor() (func() listset.Set, error) {
	im, err := listset.Lookup(w.Impl)
	if err != nil {
		return nil, err
	}
	var f func(shards int, lo, hi int64) listset.Set
	switch w.Build {
	case BuildNew:
		if im.New != nil {
			return im.New, nil
		}
	case BuildSharded:
		f = im.NewSharded
	case BuildShardedArena:
		f = im.NewShardedArena
	}
	if f == nil {
		return nil, fmt.Errorf("%s has no %s constructor", im.Name, w.Build)
	}
	shards, hi := w.Shards, w.KeyRange
	return func() listset.Set { return f(shards, 0, hi) }, nil
}
