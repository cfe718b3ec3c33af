package faas

import (
	"math"
	"testing"
)

func TestTable1Totals(t *testing.T) {
	// The Morello profiles must reproduce the Table 1 totals exactly.
	cases := []struct {
		p    CostProfile
		want float64
	}{
		{MorelloCheri, 89}, {MorelloRWasm, 241}, {MorelloProcess, 486}, {MorelloKVM, 889},
	}
	for _, c := range cases {
		if got := c.p.TotalUS(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("total = %v, want %v", got, c.want)
		}
	}
}

func TestX86TotalsMatchPaper(t *testing.T) {
	// §7.2: "the total latencies of the rWasm, process, and KVM backends
	// are 109, 539, and 218 microseconds" on the default kernel.
	cases := []struct {
		p    CostProfile
		want float64
	}{
		{X86RWasm, 109}, {X86Process, 539}, {X86KVM, 218},
	}
	for _, c := range cases {
		if got := c.p.TotalUS(); math.Abs(got-c.want) > 0.5 {
			t.Errorf("x86 total = %v, want %v", got, c.want)
		}
	}
}

func TestCachedColdStartCheaper(t *testing.T) {
	for _, p := range []CostProfile{MorelloCheri, MorelloRWasm, MorelloProcess, MorelloKVM} {
		if p.ColdStartUS(true) >= p.ColdStartUS(false) {
			t.Errorf("cached cold start not cheaper: %+v", p)
		}
	}
}

func TestBackendOrderFastestToSlowest(t *testing.T) {
	// Table 1's headline: cheri < rwasm < process < kvm on Morello.
	var prev float64
	for i, n := range Names() {
		p, _ := MorelloProfile(n)
		tot := p.TotalUS()
		if i > 0 && tot <= prev {
			t.Fatalf("backend order violated at %s", n)
		}
		prev = tot
	}
}

func TestComputeFactorOnlyRWasmSlower(t *testing.T) {
	for _, n := range Names() {
		p, ok := MorelloProfile(n)
		if !ok {
			t.Fatalf("no profile for %q", n)
		}
		f := p.ComputeFactor
		if n == "rwasm" {
			if f <= 1 {
				t.Errorf("rwasm compute factor = %v, want > 1", f)
			}
		} else if f != 1 {
			t.Errorf("%s compute factor = %v, want 1", n, f)
		}
	}
}
