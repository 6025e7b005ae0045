package core

import (
	"hash/fnv"
	"runtime"
	"sync"
)

// Partial is the aggregate contribution of one subset of the population —
// a shard's running (N, Σ w_i, Σ default_i, Σ Violation_i). The paper's
// population quantities (Defs. 2 and 5, Eq. 16) are sums of independent
// per-provider terms, so a population can be carved into disjoint shards
// whose Partials are maintained independently and merged on read.
//
// The integer fields are exact under any merge order. The float total is
// order-sensitive at the last ulp, so mergers must reduce in a fixed order
// (shard index order) to stay deterministic for a given shard count; the
// byte-exact total comes from re-summing rows in global sorted provider
// order (AssemblePopulation), which is independent of sharding entirely.
type Partial struct {
	N               int
	ViolatedCount   int     // Σ_i w_i over the subset
	DefaultCount    int     // Σ_i default_i over the subset
	TotalViolations float64 // Σ_i Violation_i over the subset (order-sensitive)
}

// Add folds one provider's report into the partial.
func (p *Partial) Add(rep *ProviderReport) {
	p.N++
	if rep.Violated {
		p.ViolatedCount++
	}
	if rep.Defaults {
		p.DefaultCount++
	}
	p.TotalViolations += rep.Violation
}

// Sub removes one provider's contribution. The integer fields stay exact;
// the float total accumulates rounding in edit order, as documented on
// Partial.
func (p *Partial) Sub(rep *ProviderReport) {
	p.N--
	if rep.Violated {
		p.ViolatedCount--
	}
	if rep.Defaults {
		p.DefaultCount--
	}
	p.TotalViolations -= rep.Violation
}

// MergePartials reduces shard partials left to right — a fixed shard-order
// reduction, so the merged float total is deterministic for a given shard
// layout.
//
//lint:deterministic the fixed reduction order is what keeps shard merges reproducible
func MergePartials(parts []Partial) Partial {
	var out Partial
	for i := range parts {
		out.N += parts[i].N
		out.ViolatedCount += parts[i].ViolatedCount
		out.DefaultCount += parts[i].DefaultCount
		out.TotalViolations += parts[i].TotalViolations
	}
	return out
}

// PW is Def. 2 over the subset: Σ w_i / N (0 for an empty subset).
func (p Partial) PW() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.ViolatedCount) / float64(p.N)
}

// PDefault is Def. 5 over the subset: Σ default_i / N (0 for an empty
// subset).
func (p Partial) PDefault() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.DefaultCount) / float64(p.N)
}

// ShardIndex maps a canonical provider key onto one of n shards by FNV-1a
// hash. Every sharded structure in the system uses this one function, so a
// provider's DB shard and ledger shard always coincide.
func ShardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	//lint:ignore errflow fnv.Write never fails
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// DefaultShards is the shard count used when a caller asks for 0: one per
// schedulable CPU, the widest useful fan-out.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// FanOut runs f(0..n-1) across at most workers goroutines. workers <= 1 (or
// n <= 1) degrades to a plain serial loop with zero goroutine overhead —
// a 1-shard configuration is exactly the pre-sharding serial code path.
// Results must be written to disjoint, pre-sized slots so the reduction
// order downstream is under the caller's control, not the scheduler's.
func FanOut(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
