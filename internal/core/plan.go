// Package core implements the paper's contribution: combining
// top-down and bottom-up BFS across architectures (Algorithm 3) and
// executing/pricing any combination strategy on the architecture
// simulator.
//
// A Plan decides, before every expansion step, which device runs the
// step and in which direction. Single-architecture combinations
// (CPUCB, GPUCB, MICCB), pure baselines (GPUTD, CPUBU, ...) and the
// cross-architecture CPUTD+GPUCB of Algorithm 3 are all Plans, so the
// whole of Table IV is one loop over plans.
package core

import (
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

// Placement is one step's scheduling decision.
type Placement struct {
	Arch archsim.Arch
	Dir  bfs.Direction
}

// Plan is a reusable strategy. Begin returns the per-traversal state
// (Algorithm 3 is stateful: once the traversal moves to the
// coprocessor it never returns to the host, §IV).
type Plan interface {
	// Name identifies the plan in tables, e.g. "CPUTD+GPUCB".
	Name() string
	// Begin starts one traversal's decision state.
	Begin() Stepper
	// Devices lists every device the plan may place a step on, in
	// plan order: the replan candidate set SimulateResilient picks a
	// survivor from when a placed device has crashed.
	Devices() []archsim.Arch
}

// Stepper makes the per-step decision for one traversal.
type Stepper interface {
	Place(bfs.StepInfo) Placement
}

// ---- Single-architecture plans ----

// SinglePlan runs every step on one device, choosing the direction
// with a bfs.Policy: the paper's GPUTD, GPUBU, GPUCB, CPUTD, ... rows.
type SinglePlan struct {
	PlanName string
	Arch     archsim.Arch
	Policy   bfs.Policy
}

// Name implements Plan.
func (p SinglePlan) Name() string { return p.PlanName }

// Begin implements Plan. Single-architecture policies used in this
// repository are stateless, so the plan is its own stepper.
func (p SinglePlan) Begin() Stepper { return p }

// Place implements Stepper.
func (p SinglePlan) Place(s bfs.StepInfo) Placement {
	return Placement{Arch: p.Arch, Dir: p.Policy.Choose(s)}
}

// Devices implements Plan.
func (p SinglePlan) Devices() []archsim.Arch { return []archsim.Arch{p.Arch} }

// FixedDirection returns the pure single-direction baseline on arch
// (e.g. GPUTD).
func FixedDirection(arch archsim.Arch, dir bfs.Direction) SinglePlan {
	pol := bfs.AlwaysTopDown
	if dir == bfs.BottomUp {
		pol = bfs.AlwaysBottomUp
	}
	return SinglePlan{
		PlanName: arch.Kind.String() + dir.String(),
		Arch:     arch,
		Policy:   pol,
	}
}

// Combination returns the single-architecture direction-optimizing
// combination on arch with switching thresholds (m, n): the paper's
// CPUCB / GPUCB / MICCB.
func Combination(arch archsim.Arch, m, n float64) SinglePlan {
	return SinglePlan{
		PlanName: arch.Kind.String() + "CB",
		Arch:     arch,
		Policy:   bfs.MN{M: m, N: n},
	}
}

// PolicyPlan runs every step on one device under a freshly
// constructed direction policy per traversal — the safe wrapper for
// stateful policies (Beamer's alpha/beta phases, Hong's one-way
// switch), which must not leak phase state between traversals.
type PolicyPlan struct {
	PlanName  string
	Arch      archsim.Arch
	NewPolicy func() bfs.Policy
}

// Name implements Plan.
func (p PolicyPlan) Name() string { return p.PlanName }

// Begin implements Plan.
func (p PolicyPlan) Begin() Stepper {
	return policyStepper{arch: p.Arch, policy: p.NewPolicy()}
}

// Devices implements Plan.
func (p PolicyPlan) Devices() []archsim.Arch { return []archsim.Arch{p.Arch} }

type policyStepper struct {
	arch   archsim.Arch
	policy bfs.Policy
}

// Place implements Stepper.
func (s policyStepper) Place(info bfs.StepInfo) Placement {
	return Placement{Arch: s.arch, Dir: s.policy.Choose(info)}
}

// TwoArchPlan runs top-down steps on one device and bottom-up steps on
// another, switching by the (M, N) rule. This is the traversal the
// tuner labels: the paper's training samples pair a top-down
// architecture with a bottom-up architecture (Fig. 7's Arch-TD and
// Arch-BU feature blocks), and the same regression model then serves
// both the cross-architecture boundary (TD=CPU, BU=GPU) and the
// single-architecture combination (TD=BU=GPU).
type TwoArchPlan struct {
	TDArch, BUArch archsim.Arch
	M, N           float64
}

// Name implements Plan.
func (p TwoArchPlan) Name() string {
	if p.TDArch.Name == p.BUArch.Name {
		return p.TDArch.Kind.String() + "CB"
	}
	return p.TDArch.Kind.String() + "TD|" + p.BUArch.Kind.String() + "BU"
}

// Validate reports whether the thresholds are usable.
func (p TwoArchPlan) Validate() error {
	if p.M <= 0 || p.N <= 0 {
		return fmt.Errorf("core: two-arch plan thresholds must be positive, got (%g,%g)", p.M, p.N)
	}
	return nil
}

// Begin implements Plan. The MN rule is stateless, so the plan is its
// own stepper.
func (p TwoArchPlan) Begin() Stepper { return p }

// Devices implements Plan.
func (p TwoArchPlan) Devices() []archsim.Arch {
	if p.TDArch.Name == p.BUArch.Name {
		return []archsim.Arch{p.TDArch}
	}
	return []archsim.Arch{p.TDArch, p.BUArch}
}

// Place implements Stepper.
func (p TwoArchPlan) Place(s bfs.StepInfo) Placement {
	if (bfs.MN{M: p.M, N: p.N}).Choose(s) == bfs.BottomUp {
		return Placement{Arch: p.BUArch, Dir: bfs.BottomUp}
	}
	return Placement{Arch: p.TDArch, Dir: bfs.TopDown}
}

// ---- Cross-architecture plan (Algorithm 3) ----

// CrossPlan is the paper's CPUTD+GPUCB (Algorithm 3): top-down on the
// host while the frontier is small by the (M1, N1) rule, then hand off
// to the coprocessor, which runs its own (M2, N2) top-down/bottom-up
// combination and never hands back (§IV: "it is meaningless for the
// CPU+GPU solution to switch back to CPU in the last levels").
type CrossPlan struct {
	Host        archsim.Arch // runs the early top-down levels
	Coprocessor archsim.Arch // runs the rest as a TD/BU combination
	M1, N1      float64      // host->coprocessor boundary (RegressionModel(GI, CPUI, GPUI))
	M2, N2      float64      // on-coprocessor TD/BU switching (RegressionModel(GI, GPUI, GPUI))
}

// Name implements Plan.
func (p CrossPlan) Name() string {
	return p.Host.Kind.String() + "TD+" + p.Coprocessor.Kind.String() + "CB"
}

// Validate reports whether the thresholds are usable.
func (p CrossPlan) Validate() error {
	if p.M1 <= 0 || p.N1 <= 0 || p.M2 <= 0 || p.N2 <= 0 {
		return fmt.Errorf("core: cross plan thresholds must be positive, got (%g,%g,%g,%g)",
			p.M1, p.N1, p.M2, p.N2)
	}
	return nil
}

// Begin implements Plan.
func (p CrossPlan) Begin() Stepper { return &crossStepper{plan: p} }

// Devices implements Plan.
func (p CrossPlan) Devices() []archsim.Arch {
	return []archsim.Arch{p.Host, p.Coprocessor}
}

type crossStepper struct {
	plan    CrossPlan
	entered bool // true once any step has run on the coprocessor
}

// Place implements Stepper, following Algorithm 3's control flow.
func (c *crossStepper) Place(s bfs.StepInfo) Placement {
	p := c.plan
	small := func(m, n float64) bool {
		return float64(s.FrontierEdges) < float64(s.TotalEdges)/m &&
			float64(s.FrontierVertices) < float64(s.TotalVertices)/n
	}
	if !c.entered && small(p.M1, p.N1) {
		return Placement{Arch: p.Host, Dir: bfs.TopDown}
	}
	c.entered = true
	if small(p.M2, p.N2) {
		return Placement{Arch: p.Coprocessor, Dir: bfs.TopDown}
	}
	return Placement{Arch: p.Coprocessor, Dir: bfs.BottomUp}
}

// CrossTDBU is the intermediate CPUTD+GPUBU design from Table IV: host
// top-down first, then pure bottom-up on the coprocessor with no
// final top-down switch. Kept as a comparison point.
type CrossTDBU struct {
	Host        archsim.Arch
	Coprocessor archsim.Arch
	M1, N1      float64
}

// Name implements Plan.
func (p CrossTDBU) Name() string {
	return p.Host.Kind.String() + "TD+" + p.Coprocessor.Kind.String() + "BU"
}

// Begin implements Plan.
func (p CrossTDBU) Begin() Stepper {
	// Degenerate CrossPlan whose coprocessor combination never picks
	// top-down (M2, N2 thresholds at +infinity of strictness).
	return &crossStepper{plan: CrossPlan{
		Host: p.Host, Coprocessor: p.Coprocessor,
		M1: p.M1, N1: p.N1,
		M2: 1e18, N2: 1e18,
	}}
}

// Devices implements Plan.
func (p CrossTDBU) Devices() []archsim.Arch {
	return []archsim.Arch{p.Host, p.Coprocessor}
}
