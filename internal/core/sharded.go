package core

import (
	"fmt"

	"crossbfs/internal/archsim"
)

// ShardedPlan prices the partitioned engine (bfs.Sharded) on a modeled
// machine: Ranks identical devices joined by a Fabric, each owning one
// 1D shard. Unlike MultiCross — which models a host handing the middle
// levels to coprocessors — every level here runs partitioned, and every
// level pays the collective: an all-reduce for the direction decision
// plus the frontier exchange (delta all-gather for bottom-up levels,
// ghost-claim all-to-all for top-down). The exchanged byte counts come
// from a real traversal's bfs.Result.Exchanges, so the communication
// term is measured, not assumed.
type ShardedPlan struct {
	Device archsim.Arch
	Ranks  int
	Fabric *archsim.Fabric
	M, N   float64
}

// Name identifies the plan in reports, e.g. "4xSandyBridge-8c-1D".
func (p ShardedPlan) Name() string {
	return fmt.Sprintf("%dx%s-1D", p.Ranks, p.Device.Name)
}

// Validate reports whether the plan is usable.
func (p ShardedPlan) Validate() error {
	if p.Ranks < 1 {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded plan needs >= 1 rank, got %d", p.Ranks)
	}
	if p.Fabric == nil {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded plan needs a fabric")
	}
	if p.Fabric.Ranks() != p.Ranks {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded plan has %d ranks but a %d-rank fabric",
			p.Ranks, p.Fabric.Ranks())
	}
	if p.M <= 0 || p.N <= 0 {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded thresholds must be positive")
	}
	return nil
}
