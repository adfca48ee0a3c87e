// Package archsim models the paper's three execution platforms — an
// 8-core Sandy Bridge CPU, an NVIDIA Kepler K20x GPU and a 61-core
// Knights Corner MIC — as analytical cost models over the exact
// per-level work counts produced by a real BFS traversal.
//
// Why a simulator: this reproduction has neither a GPU nor a MIC (nor
// practical CUDA bindings from Go), so device execution is replaced by
// a model that prices each BFS level as
//
//	stepTime = launch + max(memoryTime, computeTime)
//	memoryTime  = bytes / (MeasuredBW * util * derate)
//	computeTime = items / (Rate       * util * derate)
//	util(p)     = p / (p + HalfUtil)
//
// Three mechanisms carry the paper's phenomena:
//
//  1. The utilization curve (paper §III-A): top-down parallelism is
//     Θ(V_CQ/lg V_CQ), so a small frontier starves a 2496-core GPU but
//     saturates 8 CPU cores; bottom-up parallelism is Θ(V/lg V), which
//     the GPU always saturates. This produces the GPU's disastrous
//     early top-down levels (Table IV level 2) and its cheap tail.
//  2. Per-direction peak rates: GPU top-down is slow per edge even at
//     full utilization (uncoalesced gathers + atomic claims; Table IV
//     level 4 implies ~0.4G edges/s), GPU bottom-up is fast (bitmap
//     probes, no atomics); the MIC's in-order P54-derived cores give
//     it the lowest rates of all (paper §V-C: ~20x below a Sandy
//     Bridge core serially).
//  3. Scan-length divergence derating for SIMT devices: bottom-up
//     throughput degrades with the mean scan length, because long
//     fruitless adjacency walks (first levels: every vertex scans its
//     whole list hunting a one-vertex frontier) serialize warps. This
//     is why the paper's GPUBU spends 97% of its time on the first two
//     levels (Table IV) while mid levels with early exit are fast.
//
// Constants are calibrated to Table II (bandwidths, clocks, caches)
// and the relative per-level times of Table IV; the HalfUtil
// saturation points are scaled down by the same ~16x factor as the
// default graph sizes (SCALE 17-20 here vs 21-23 in the paper) so
// paper-scale regimes appear at laptop-scale inputs. Absolute times
// are meaningful only relative to each other.
package archsim

import (
	"fmt"
	"math"

	"crossbfs/internal/bfs"
)

// Kind labels the architecture family.
type Kind int8

const (
	CPU Kind = iota
	GPU
	MIC
)

func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case MIC:
		return "MIC"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// Arch is one platform: the paper's Table II datasheet values (also
// the tuner's architecture features, Fig. 7) plus the calibrated cost
// model constants.
type Arch struct {
	Name string
	Kind Kind

	// Table II datasheet values.
	ClockGHz      float64
	PeakDPGflops  float64
	PeakSPGflops  float64
	L1KB          float64 // per core (per SM for the GPU)
	L2KB          float64
	L3MB          float64
	TheoreticalBW float64 // GB/s
	MeasuredBW    float64 // GB/s
	Cores         int     // physical cores (CUDA cores for the GPU)

	// Cost model constants.

	// LaunchOverhead is the fixed per-level cost in seconds: kernel
	// launch for the GPU, parallel-region fork/join for CPU and MIC.
	LaunchOverhead float64
	// TDRate and BURate are peak adjacency entries (edges traversed /
	// scans performed) per second at full utilization.
	TDRate float64
	BURate float64
	// SerialRate is the single-thread streaming adjacency entry rate:
	// it bounds the longest bottom-up scan, and it is the rate of the
	// paper's serial-version comparison (§V-C).
	SerialRate float64
	// ThreadRate is the latency-bound per-thread rate on dependent
	// random accesses: the speed at which ONE thread walks ONE
	// adjacency list. It bounds a level from below by its critical
	// path (a hub's list is scanned serially by a single thread) and
	// floors the throughput of low-occupancy kernels (p threads never
	// run slower than p*ThreadRate). Out-of-order CPU cores overlap
	// several misses (~100M/s); an in-order 0.73 GHz GPU lane resolves
	// one ~400ns miss at a time (~2.5M/s) — this 40x gap is why tiny
	// frontiers belong on the CPU (Table IV levels 1-2).
	ThreadRate float64
	// HalfUtil is the number of independent work items at which the
	// device reaches 50% utilization. CPUs saturate at a few tens of
	// items; the K20x needs hundreds of thousands of threads.
	HalfUtil float64
	// ScanRef is the mean bottom-up scan length at which divergence
	// halves throughput (0 disables the penalty; out-of-order CPUs
	// with dynamic scheduling hide it).
	ScanRef float64
	// EffCacheBytes is the capacity available to the bottom-up working
	// set (the visited/current/next bitmaps, ~3|V|/8 bytes). When the
	// working set spills out, the per-scan bitmap probes go to DRAM
	// and throughput is derated proportionally. This is the paper's
	// Table VI effect: the GPU wins small graphs and loses large ones
	// to the CPU's 20 MB L3 ("CPU is equipped with a more matchable
	// memory bandwidth", §VII). Like HalfUtil, the capacities are
	// scaled down (~32x) with the default graph sizes. Zero disables
	// the effect. Top-down gets no such benefit at any size: its
	// random probes target the 4|V|-byte parent map, which exceeds
	// every cache here.
	EffCacheBytes float64

	// Per-item byte charges for the memory-side roofline. Top-down
	// traffic includes random parent-map probes; bottom-up probes a
	// frontier bitmap thousands of times smaller and mostly
	// cache-resident.
	TDBytesPerEdge       float64
	TDBytesPerQueueEntry float64
	BUBytesPerScan       float64
	BUBytesPerCandidate  float64
	BytesPerDiscovered   float64
}

// SandyBridge returns the paper's CPU: 8-core 2.0 GHz Sandy Bridge
// Xeon (Table II, column CPU).
func SandyBridge() Arch {
	return Arch{
		Name: "SandyBridge-8c", Kind: CPU,
		ClockGHz: 2.00, PeakDPGflops: 128, PeakSPGflops: 256,
		L1KB: 32, L2KB: 256, L3MB: 20,
		TheoreticalBW: 51.2, MeasuredBW: 34,
		Cores: 8,

		// Fork/join of an 8-thread parallel region; Table IV level-1
		// CPUTD measures ~0.7ms, most of it this overhead.
		LaunchOverhead: 500e-6,
		// Table IV implies ~1.6G edges/s top-down (256M entries in
		// 0.163s); bottom-up streams faster with an L3-resident
		// frontier bitmap. Both sit at the 34 GB/s memory roofline —
		// the paper's point that BFS is memory-bound on CPUs (§III-B).
		TDRate:        1.6e9,
		BURate:        3.0e9,
		SerialRate:    400e6,
		ThreadRate:    150e6,
		HalfUtil:      16,
		ScanRef:       0,     // out-of-order + work stealing hide scan skew
		EffCacheBytes: 640e3, // 20 MB L3, scaled ~32x with the graphs

		TDBytesPerEdge: 20, TDBytesPerQueueEntry: 16,
		BUBytesPerScan: 11, BUBytesPerCandidate: 4,
		BytesPerDiscovered: 8,
	}
}

// KeplerK20x returns the paper's GPU (Table II, column GPU).
func KeplerK20x() Arch {
	return Arch{
		Name: "KeplerK20x", Kind: GPU,
		ClockGHz: 0.73, PeakDPGflops: 1320, PeakSPGflops: 3950,
		L1KB: 64, L2KB: 1536, L3MB: 0,
		TheoreticalBW: 250, MeasuredBW: 188,
		Cores: 2496,

		// Kernel launch + frontier bookkeeping; Table IV level-1 GPUTD
		// measures ~0.23ms.
		LaunchOverhead: 230e-6,
		// Top-down: uncoalesced neighbor gathers + global atomic
		// claims (Table IV level 4 implies ~0.4G edges/s at full
		// occupancy). Bottom-up: coalesced list walks + bitmap probes,
		// no atomics — fast at peak but derated by divergence.
		TDRate:     0.4e9,
		BURate:     6.0e9,
		SerialRate: 25e6, // one 0.73 GHz in-order lane
		// A couple of outstanding loads per lane via ILP and the
		// memory pipeline soften the ~400ns round trip.
		ThreadRate:    6e6,
		HalfUtil:      32768,
		ScanRef:       2,
		EffCacheBytes: 24e3, // 1.5 MB L2, scaled ~32x with the graphs

		TDBytesPerEdge: 20, TDBytesPerQueueEntry: 16,
		BUBytesPerScan: 11, BUBytesPerCandidate: 4,
		BytesPerDiscovered: 8,
	}
}

// KnightsCorner returns the paper's MIC (Table II, column MIC). The
// paper runs the unmodified CPU source on it (no 512-bit SIMD, §V-C),
// so the model is instruction-rate bound: in-order P54-derived cores
// the paper measures ~20x below a Sandy Bridge core serially.
func KnightsCorner() Arch {
	return Arch{
		Name: "KnightsCorner-60c", Kind: MIC,
		ClockGHz: 1.09, PeakDPGflops: 1010, PeakSPGflops: 2020,
		L1KB: 32, L2KB: 512, L3MB: 0,
		TheoreticalBW: 352, MeasuredBW: 159,
		Cores: 60,

		// OpenMP fork/join across 240 hardware threads is expensive.
		LaunchOverhead: 2.9e-3,
		TDRate:         0.35e9, // 60 cores x ~6M entries/s effective
		BURate:         0.8e9,
		SerialRate:     20e6,
		ThreadRate:     8e6,
		HalfUtil:       2048,
		ScanRef:        16,    // in-order cores stall on long scans, but threads are independent
		EffCacheBytes:  960e3, // 60 x 512 KB coherent L2, scaled ~32x

		TDBytesPerEdge: 20, TDBytesPerQueueEntry: 16,
		BUBytesPerScan: 11, BUBytesPerCandidate: 4,
		BytesPerDiscovered: 8,
	}
}

// Label renders the architecture for displays that need the family
// visible next to the device, e.g. "GPU:KeplerK20x". Telemetry events
// (internal/obs) carry the bare Name — it is the stable lane key that
// fault schedules and replans also match on — and reporting layers
// (bfsrun, tracecheck) upgrade it to this label for humans.
func (a Arch) Label() string {
	return fmt.Sprintf("%s:%s", a.Kind, a.Name)
}

// Utilization returns the fraction of peak throughput available with
// `items` independent work units.
func (a Arch) Utilization(items int64) float64 {
	if items <= 0 {
		return 0
	}
	p := float64(items)
	return p / (p + a.HalfUtil)
}

// RCMB returns the architecture's Ratio of Computation to Memory
// Bandwidth (paper Eq. 2, single precision): peak Gflops over
// theoretical GB/s.
func (a Arch) RCMB() float64 {
	if a.TheoreticalBW == 0 {
		return math.Inf(1)
	}
	return a.PeakSPGflops / a.TheoreticalBW
}

// AlgorithmRCMA is the paper's estimate of BFS's Ratio of Computation
// to Memory Access (Eq. 1, via the SpMV analogy): ~0.5 flops per byte,
// far below every RCMB in Table II — BFS is memory-bound everywhere.
const AlgorithmRCMA = 0.5

// TopDownTime prices one top-down expansion step. Parallelism is the
// frontier vertex count (paper §III-A: Θ(V_CQ/lg V_CQ) threads); the
// critical path is the largest frontier adjacency list, walked
// serially by one thread.
func (a Arch) TopDownTime(s bfs.LevelStats) float64 {
	bytes := float64(s.FrontierEdges)*a.TDBytesPerEdge +
		float64(s.FrontierVertices)*a.TDBytesPerQueueEntry +
		float64(s.Discovered)*a.BytesPerDiscovered
	work := a.workTime(bytes, float64(s.FrontierEdges), a.TDRate, s.FrontierVertices, 1)
	critical := float64(s.MaxFrontierDegree) / a.ThreadRate
	return a.LaunchOverhead + math.Max(work, critical)
}

// BottomUpTime prices one bottom-up expansion step. Parallelism is the
// unvisited vertex count (Θ(V/lg V) threads); throughput is derated by
// the level's mean scan length on SIMT devices; the critical path is
// the longest single scan.
func (a Arch) BottomUpTime(s bfs.LevelStats) float64 {
	bytes := float64(s.BottomUpScans)*a.BUBytesPerScan +
		float64(s.UnvisitedVertices)*a.BUBytesPerCandidate +
		float64(s.Discovered)*a.BytesPerDiscovered
	derate := 1.0
	if a.ScanRef > 0 {
		derate = 1 + s.MeanScan()/a.ScanRef
	}
	if a.EffCacheBytes > 0 {
		// Visited + current + next bitmaps must stay cache-resident
		// for cheap probes; spilling costs a DRAM transaction per scan.
		workingSet := 3 * float64(s.GraphVertices) / 8
		if over := workingSet / a.EffCacheBytes; over > 1 {
			derate *= math.Min(over, 4)
		}
	}
	work := a.workTime(bytes, float64(s.BottomUpScans), a.BURate, s.UnvisitedVertices, derate)
	// The longest scan walks one adjacency list sequentially with
	// cache-resident bitmap probes, so it runs at the streaming serial
	// rate, not the random-access ThreadRate that binds top-down.
	critical := float64(s.MaxScan) / a.SerialRate
	return a.LaunchOverhead + math.Max(work, critical)
}

// StepTime prices a step in the given direction.
func (a Arch) StepTime(dir bfs.Direction, s bfs.LevelStats) float64 {
	if dir == bfs.BottomUp {
		return a.BottomUpTime(s)
	}
	return a.TopDownTime(s)
}

// workTime is the roofline core of the model: the slower of the memory
// channel and the instruction pipeline, both derated by utilization
// and divergence. Throughput is floored at items*ThreadRate — p
// resident threads never run slower than p serial walkers — which is
// what keeps tiny-frontier kernels latency-bound instead of absurd.
func (a Arch) workTime(bytes, entries, rate float64, items int64, derate float64) float64 {
	if items <= 0 {
		return 0 // no work items, no work
	}
	floor := math.Min(float64(items)*a.ThreadRate, rate)
	effRate := math.Max(rate*a.Utilization(items), floor) / derate
	effBW := math.Max(a.MeasuredBW*1e9*a.Utilization(items), floor*a.TDBytesPerEdge) / derate
	memTime := bytes / effBW
	cpuTime := entries / effRate
	return math.Max(memTime, cpuTime)
}

// WithCores returns a copy of a scaled to n active cores, for the
// strong/weak scaling experiments (paper Fig. 10). Instruction
// throughput scales linearly with cores; shared memory bandwidth
// saturates sublinearly (c^0.8); the saturation point and peak numbers
// scale linearly; launch overhead has a fixed part plus a per-core
// barrier part.
func (a Arch) WithCores(n int) Arch {
	if n <= 0 || n == a.Cores {
		return a
	}
	frac := float64(n) / float64(a.Cores)
	scaled := a
	scaled.Name = fmt.Sprintf("%s@%dc", a.Name, n)
	scaled.Cores = n
	scaled.TDRate = a.TDRate * frac
	scaled.BURate = a.BURate * frac
	scaled.MeasuredBW = a.MeasuredBW * math.Pow(frac, 0.8)
	scaled.TheoreticalBW = a.TheoreticalBW * math.Pow(frac, 0.8)
	scaled.PeakDPGflops = a.PeakDPGflops * frac
	scaled.PeakSPGflops = a.PeakSPGflops * frac
	scaled.HalfUtil = a.HalfUtil * frac
	// Fork/join barriers are tree-shaped: the cost is dominated by
	// thread wake-up latency, with only a small per-core component.
	fixed := a.LaunchOverhead * 0.85
	perCore := a.LaunchOverhead * 0.15 / float64(a.Cores)
	scaled.LaunchOverhead = fixed + perCore*float64(n)
	return scaled
}
