package archsim

import "fmt"

// Fabric generalizes Link from one point-to-point wire to an
// interconnect topology over N endpoints ("ranks"). The sharded BFS
// exchanges compressed frontier deltas every level; whether those
// exchanges are cheap NUMA stores, PCIe hops, or Ethernet frames is
// exactly the communication-vs-computation crossover the partition
// layer has to price (PAPERS.md, Buluç–Beamer: the direction-optimizing
// heuristic survives distribution only while the all-gather stays
// cheaper than the saved edge scans).
//
// The model is per-pair Links plus the two collectives the sharded
// engine uses: a ring all-gather for bottom-up frontier deltas and an
// all-to-all scatter for top-down ghost claims. Collective costs follow
// the standard alpha-beta estimates on the slowest participating link.
type Fabric struct {
	// Name labels the fabric in reports ("smp", "pcie", "eth10g", ...).
	Name string
	// links[i][j] prices i -> j transfers; links[i][i] is SameDevice.
	links [][]Link
}

// NewFabric builds a fabric over an explicit pairwise link matrix.
// links must be square and at least 1x1; diagonal entries are forced
// to SameDevice.
func NewFabric(name string, links [][]Link) (*Fabric, error) {
	n := len(links)
	if n == 0 {
		return nil, fmt.Errorf("archsim: fabric %q needs at least one endpoint", name)
	}
	m := make([][]Link, n)
	for i, row := range links {
		if len(row) != n {
			return nil, fmt.Errorf("archsim: fabric %q row %d has %d entries, want %d", name, i, len(row), n)
		}
		m[i] = append([]Link(nil), row...)
		m[i][i] = SameDevice()
	}
	return &Fabric{Name: name, links: m}, nil
}

// UniformFabric builds an all-to-all fabric where every distinct pair
// shares the same link.
func UniformFabric(name string, n int, l Link) *Fabric {
	links := make([][]Link, n)
	for i := range links {
		links[i] = make([]Link, n)
		for j := range links[i] {
			if i != j {
				links[i][j] = l
			}
		}
	}
	f, err := NewFabric(name, links)
	if err != nil {
		panic(err) // n<=0 is a programming error at the preset call sites
	}
	return f
}

// SMP returns an n-way shared-memory fabric: ranks are goroutines on
// one socket, a "transfer" is a cache-coherent copy (~20 GB/s
// effective, ~200ns of synchronization).
func SMP(n int) *Fabric {
	return UniformFabric("smp", n, Link{BandwidthGBs: 20, LatencySeconds: 2e-7})
}

// PCIeFabric returns an n-way fabric of PCIe peers (paper-generation
// links, see PCIe).
func PCIeFabric(n int) *Fabric {
	return UniformFabric("pcie", n, PCIe())
}

// Eth10G returns an n-way 10-gigabit Ethernet fabric: ~1.1 GB/s
// effective, 50us per message — the regime where the frontier exchange
// dominates and the crossover bites earliest.
func Eth10G(n int) *Fabric {
	return UniformFabric("eth10g", n, Link{BandwidthGBs: 1.1, LatencySeconds: 5e-5})
}

// Ranks returns the number of endpoints.
func (f *Fabric) Ranks() int { return len(f.links) }

// slowest returns the worst (highest-cost) link for the given byte
// count across all distinct pairs — the bottleneck wire collective
// estimates are built on.
func (f *Fabric) slowest(n int64) float64 {
	worst := 0.0
	for i := range f.links {
		for j := range f.links {
			if i == j {
				continue
			}
			if t := f.links[i][j].TransferTime(n); t > worst {
				worst = t
			}
		}
	}
	return worst
}

// AllGatherTime prices a ring all-gather where each rank contributes
// bytesPerRank: N-1 ring steps, each shipping one rank's contribution
// over the step's bottleneck link. This is the bottom-up frontier
// delta exchange.
func (f *Fabric) AllGatherTime(bytesPerRank int64) float64 {
	n := len(f.links)
	if n <= 1 {
		return 0
	}
	return float64(n-1) * f.slowest(bytesPerRank)
}

// AllToAllTime prices a personalized all-to-all where each rank sends
// totalSendBytes split across the other N-1 ranks: N-1 exchange
// rounds of totalSend/(N-1) bytes on the bottleneck link. This is the
// top-down ghost-claim scatter.
func (f *Fabric) AllToAllTime(totalSendBytes int64) float64 {
	n := len(f.links)
	if n <= 1 || totalSendBytes <= 0 {
		return 0
	}
	per := (totalSendBytes + int64(n-1) - 1) / int64(n-1)
	return float64(n-1) * f.slowest(per)
}

// AllReduceTime prices the per-level collective that agrees on global
// |V|cq, |E|cq and the direction: a ring reduce-scatter plus
// all-gather of a fixed small payload, 2(N-1) latency-bound hops.
func (f *Fabric) AllReduceTime(payloadBytes int64) float64 {
	n := len(f.links)
	if n <= 1 {
		return 0
	}
	return 2 * float64(n-1) * f.slowest(payloadBytes)
}

// ExchangeTime prices one level's full communication: the collective
// reduce (fixed 32-byte payload), plus the frontier all-gather, plus
// the ghost-claim all-to-all. Zero-byte components still pay the
// collective's latency — every level synchronizes even when nothing
// moved, which is why over-sharding small graphs loses.
func (f *Fabric) ExchangeTime(frontierBytesPerRank, ghostBytesTotal int64) float64 {
	return f.AllReduceTime(32) + f.AllGatherTime(frontierBytesPerRank) + f.AllToAllTime(ghostBytesTotal)
}

// DegradeRank returns a copy of the fabric with every link touching
// rank r derated by factor (bandwidth divided, latency multiplied —
// see Link.Degraded). This is how the simulator prices a lagging or
// recovering rank: its traffic rides damaged wires while the rest of
// the fabric is untouched. Factors <= 1 return an identical copy.
func (f *Fabric) DegradeRank(r int, factor float64) *Fabric {
	n := f.Ranks()
	links := make([][]Link, n)
	for i := range links {
		links[i] = append([]Link(nil), f.links[i]...)
	}
	if r >= 0 && r < n {
		for j := 0; j < n; j++ {
			if j != r {
				links[r][j] = links[r][j].Degraded(factor)
				links[j][r] = links[j][r].Degraded(factor)
			}
		}
	}
	return &Fabric{Name: f.Name, links: links}
}
