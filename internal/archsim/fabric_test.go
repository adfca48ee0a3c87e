package archsim

import (
	"math"
	"testing"
)

func TestNewFabricValidates(t *testing.T) {
	if _, err := NewFabric("empty", nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := NewFabric("ragged", [][]Link{{{}, {}}, {{}}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	f, err := NewFabric("ok", [][]Link{
		{PCIe(), PCIe()},
		{PCIe(), PCIe()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.links[0][0]; got != SameDevice() {
		t.Errorf("diagonal not forced to SameDevice: %+v", got)
	}
	if got := f.links[0][1]; got != PCIe() {
		t.Errorf("link 0->1 = %+v", got)
	}
}

func TestCollectiveScaling(t *testing.T) {
	const bytes = 1 << 20
	one := SMP(1)
	if gt := one.AllGatherTime(bytes); gt != 0 {
		t.Errorf("1-rank all-gather costs %g", gt)
	}
	if rt := one.AllReduceTime(32); rt != 0 {
		t.Errorf("1-rank all-reduce costs %g", rt)
	}
	prev := 0.0
	for _, n := range []int{2, 4, 8} {
		f := SMP(n)
		gt := f.AllGatherTime(bytes)
		if gt <= prev {
			t.Errorf("all-gather not increasing in ranks: n=%d t=%g prev=%g", n, gt, prev)
		}
		prev = gt
		// Ring all-gather: exactly (n-1) bottleneck transfers.
		want := float64(n-1) * f.links[0][1].TransferTime(bytes)
		if math.Abs(gt-want) > 1e-12 {
			t.Errorf("n=%d: all-gather %g, want %g", n, gt, want)
		}
	}
}

func TestAllToAllSplitsPayload(t *testing.T) {
	f := Eth10G(4)
	total := int64(3 << 20)
	got := f.AllToAllTime(total)
	want := 3 * f.links[0][1].TransferTime(1<<20)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("all-to-all %g, want %g", got, want)
	}
	if f.AllToAllTime(0) != 0 {
		t.Error("zero-byte all-to-all should be free")
	}
}

func TestExchangeTimePaysCollectiveLatency(t *testing.T) {
	// Even with nothing to ship, every level pays the reduce: that
	// latency floor is what makes over-sharding small graphs lose.
	f := Eth10G(8)
	if f.ExchangeTime(0, 0) <= 0 {
		t.Error("empty exchange priced at zero despite collective")
	}
	if f.ExchangeTime(1<<20, 1<<20) <= f.ExchangeTime(0, 0) {
		t.Error("payload did not increase exchange time")
	}
}

func TestHeterogeneousBottleneck(t *testing.T) {
	// One slow wire must dominate the collective estimate.
	fast, slow := Link{BandwidthGBs: 50, LatencySeconds: 1e-7}, Link{BandwidthGBs: 1, LatencySeconds: 1e-4}
	f, err := NewFabric("mixed", [][]Link{
		{{}, fast, slow},
		{fast, {}, fast},
		{slow, fast, {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 1 << 16
	if got, want := f.AllGatherTime(bytes), 2*slow.TransferTime(bytes); math.Abs(got-want) > 1e-12 {
		t.Errorf("all-gather %g, want bottleneck-bound %g", got, want)
	}
}
