// Package workloads reimplements the PMDK example programs the paper
// evaluates (Table 4): five transactional maps (b_tree, c_tree, r_tree,
// rb_tree, hashmap_tx), the atomic-style hashmap_atomic, and the synthetic
// strand-persistency benchmark synth_strand. Each produces the instruction
// patterns the characterization study (§3) depends on: transactional maps
// persist through single-fence epochs, hashmap_atomic persists field groups
// collectively, and hashmap_tx defers statistics persistence, reproducing
// its outsized AVL footprint in Fig. 11.
package workloads

import (
	"fmt"
	"math/rand"

	"pmdebugger/internal/pmdk"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/rules"
)

// App is a persistent key-value structure under test.
type App interface {
	// Name returns the benchmark name used in the paper's tables.
	Name() string
	// Insert adds or updates a key.
	Insert(key, value uint64) error
	// Get looks a key up.
	Get(key uint64) (uint64, bool)
	// Remove deletes a key, reporting whether it was present.
	Remove(key uint64) (bool, error)
	// Close persists any deferred state; the pool is clean afterwards.
	Close() error
}

// Factory describes how to build one workload.
type Factory struct {
	Name  string
	Model rules.Model
	// PoolSize returns a pool size adequate for n operations.
	PoolSize func(n int) uint64
	// New builds the structure in a freshly created pmdk pool.
	New func(p *pmdk.Pool) (App, error)
}

// Registry returns the factories for all seven micro-benchmarks in Table 4
// order.
func Registry() []Factory {
	return []Factory{
		{
			Name: "b_tree", Model: rules.Epoch,
			PoolSize: func(n int) uint64 { return poolFor(n, 256) },
			New:      func(p *pmdk.Pool) (App, error) { return NewBTree(p) },
		},
		{
			Name: "c_tree", Model: rules.Epoch,
			PoolSize: func(n int) uint64 { return poolFor(n, 160) },
			New:      func(p *pmdk.Pool) (App, error) { return NewCTree(p) },
		},
		{
			Name: "r_tree", Model: rules.Epoch,
			PoolSize: func(n int) uint64 { return poolFor(n, 512) },
			New:      func(p *pmdk.Pool) (App, error) { return NewRTree(p) },
		},
		{
			Name: "rb_tree", Model: rules.Epoch,
			PoolSize: func(n int) uint64 { return poolFor(n, 160) },
			New:      func(p *pmdk.Pool) (App, error) { return NewRBTree(p) },
		},
		{
			Name: "hashmap_tx", Model: rules.Epoch,
			PoolSize: func(n int) uint64 { return poolFor(n, 160) },
			New:      func(p *pmdk.Pool) (App, error) { return NewHashmapTX(p) },
		},
		{
			Name: "hashmap_atomic", Model: rules.Epoch,
			PoolSize: func(n int) uint64 { return poolFor(n, 128) },
			New:      func(p *pmdk.Pool) (App, error) { return NewHashmapAtomic(p) },
		},
		{
			Name: "synth_strand", Model: rules.Strand,
			PoolSize: func(n int) uint64 { return poolFor(n, 512) },
			New:      func(p *pmdk.Pool) (App, error) { return NewSynthStrand(p) },
		},
	}
}

// Lookup returns the factory with the given name.
func Lookup(name string) (Factory, error) {
	for _, f := range Registry() {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// poolFor sizes a pool for n operations at roughly perOp persistent bytes
// each, with generous headroom and a floor.
func poolFor(n int, perOp uint64) uint64 {
	size := uint64(n)*perOp*2 + (1 << 20)
	const maxPool = 1 << 28
	if size > maxPool {
		return maxPool
	}
	return size
}

// Build creates the pool and the structure for n operations.
func Build(f Factory, n int) (App, *pmem.Pool, error) {
	pm := pmem.New(f.PoolSize(n))
	p, err := pmdk.Create(pm, 4096)
	if err != nil {
		return nil, nil, err
	}
	app, err := f.New(p)
	if err != nil {
		return nil, nil, err
	}
	return app, pm, nil
}

// RunInserts drives n keyed inserts with a deterministic key mix: mostly
// fresh keys with occasional re-inserts, matching the PMDK example drivers.
func RunInserts(app App, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		key := uint64(i)
		if rng.Intn(16) == 0 && i > 0 {
			key = uint64(rng.Intn(i)) // occasional overwrite of an old key
		}
		if err := app.Insert(key, key*2+1); err != nil {
			return fmt.Errorf("%s: insert %d: %w", app.Name(), key, err)
		}
	}
	return nil
}

// RunMixed drives a mixed insert/get/remove workload.
func RunMixed(app App, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	hi := uint64(1)
	if err := app.Insert(0, 1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // 60% insert
			if err := app.Insert(hi, hi); err != nil {
				return err
			}
			hi++
		case 6, 7, 8: // 30% get
			app.Get(uint64(rng.Int63n(int64(hi))))
		case 9: // 10% remove
			if _, err := app.Remove(uint64(rng.Int63n(int64(hi)))); err != nil {
				return err
			}
		}
	}
	return nil
}
