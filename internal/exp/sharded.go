package exp

import (
	"context"
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
)

// ShardedRow is one point of the partitioned-BFS sweep: the real
// sharded traversal on the default workload, priced as Ranks devices
// joined by the named fabric.
type ShardedRow struct {
	Ranks          int
	Fabric         string
	GTEPS          float64
	KernelSeconds  float64 // slowest-shard kernel time per traversal
	ExchangeSec    float64 // fabric time: direction all-reduce + frontier exchange
	ExchangedBytes int64   // measured payload (bitmap deltas + ghost claims)
}

// ShardedCrossover runs the partitioned engine for real at each rank
// count and prices the measured per-level exchange volumes on each
// fabric. The sweep exposes the communication-vs-computation crossover:
// the kernel share shrinks as 1/Ranks while the collective grows with
// the rank count, so a slow fabric inverts the scaling curve that a
// fast one shows.
func ShardedCrossover(cfg Config, rankCounts []int, fabrics []func(int) *archsim.Fabric) ([]ShardedRow, error) {
	cfg.setDefaults()
	if len(rankCounts) == 0 {
		rankCounts = []int{1, 2, 4, 8}
	}
	if len(fabrics) == 0 {
		fabrics = []func(int) *archsim.Fabric{archsim.SMP, archsim.Eth10G}
	}
	g, _, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	src, ok := firstUsableSource(g, cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("exp: graph has no non-isolated vertex")
	}
	ws := bfs.DefaultPool.Get(g.NumVertices())
	defer bfs.DefaultPool.Put(ws)

	var rows []ShardedRow
	for _, ranks := range rankCounts {
		for _, mk := range fabrics {
			plan := core.ShardedPlan{
				Device: archsim.SandyBridge(),
				Ranks:  ranks,
				Fabric: mk(ranks),
				M:      bfs.DefaultM,
				N:      bfs.DefaultN,
			}
			res, timing, err := core.ExecuteShardedResilient(context.Background(), g, src, plan, ws, core.ResilientOptions{})
			if err != nil {
				return nil, fmt.Errorf("exp: sharded sweep at %d ranks: %w", ranks, err)
			}
			var bytes int64
			for _, ex := range res.Exchanges {
				bytes += ex.TotalBytes()
			}
			rows = append(rows, ShardedRow{
				Ranks:          ranks,
				Fabric:         plan.Fabric.Name,
				GTEPS:          timing.GTEPS(),
				KernelSeconds:  timing.Total - timing.Transfers,
				ExchangeSec:    timing.Transfers,
				ExchangedBytes: bytes,
			})
		}
	}
	return rows, nil
}
