package device

import (
	"testing"
)

func TestNewClampsAndDerives(t *testing.T) {
	d := New(1, -0.5, 1.5)
	if d.CPU != 0 || d.Mem != 1 {
		t.Errorf("scores not clamped: cpu=%v mem=%v", d.CPU, d.Mem)
	}
	lo := New(2, 0, 0)
	hi := New(3, 1, 1)
	if lo.Speed >= hi.Speed {
		t.Error("speed must grow with CPU score")
	}
	if lo.FailureProb <= hi.FailureProb {
		t.Error("failure probability must shrink with CPU score")
	}
	if lo.LastTaskDay != -1 {
		t.Error("LastTaskDay must start at -1")
	}
	if lo.Capability() >= hi.Capability() {
		t.Error("capability ordering broken")
	}
}

func TestRequirementEligible(t *testing.T) {
	r := Requirement{Name: "r", MinCPU: 0.5, MinMem: 0.3}
	cases := []struct {
		cpu, mem float64
		want     bool
	}{
		{0.5, 0.3, true},
		{0.6, 0.9, true},
		{0.49, 0.9, false},
		{0.9, 0.29, false},
	}
	for _, c := range cases {
		d := New(0, c.cpu, c.mem)
		if got := r.Eligible(d); got != c.want {
			t.Errorf("Eligible(%v,%v) = %v, want %v", c.cpu, c.mem, got, c.want)
		}
		if got := r.EligibleScores(c.cpu, c.mem); got != c.want {
			t.Errorf("EligibleScores(%v,%v) = %v", c.cpu, c.mem, got)
		}
	}
}

func TestRequirementKeyGroupsEqualThresholds(t *testing.T) {
	a := Requirement{Name: "a", MinCPU: 0.5, MinMem: 0.25}
	b := Requirement{Name: "b", MinCPU: 0.5, MinMem: 0.25}
	c := Requirement{Name: "c", MinCPU: 0.5, MinMem: 0.26}
	if a.Key() != b.Key() {
		t.Error("identical thresholds must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("distinct thresholds must not share a key")
	}
	// Floating-point noise below 1e-9 must not split a group.
	d := Requirement{MinCPU: 0.5 + 1e-12, MinMem: 0.25}
	if a.Key() != d.Key() {
		t.Error("1e-12 noise split the key")
	}
}

func TestCategories(t *testing.T) {
	cats := Categories()
	if len(cats) != 4 {
		t.Fatalf("want 4 categories, got %d", len(cats))
	}
	for i, want := range []Requirement{General, ComputeRich, MemoryRich, HighPerf} {
		if cats[i] != want {
			t.Errorf("Categories()[%d] = %v, want %v", i, cats[i], want)
		}
	}
}

func TestDeviceString(t *testing.T) {
	d := New(5, 0.25, 0.75)
	if s := d.String(); s == "" {
		t.Error("empty String")
	}
	if s := General.String(); s != "General" {
		t.Errorf("named requirement String = %q", s)
	}
	anon := Requirement{MinCPU: 0.5, MinMem: 0.5}
	if s := anon.String(); s == "" {
		t.Error("anonymous requirement String empty")
	}
}
