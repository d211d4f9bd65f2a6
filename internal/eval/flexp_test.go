package eval

import (
	"testing"
)

func TestFigure4Contention(t *testing.T) {
	if testing.Short() {
		t.Skip("FL experiment")
	}
	res, err := Figure4(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	final := func(k int) float64 { c := res.Curves[k]; return c[len(c)-1] }
	one := final(1)
	many := final(res.JobCounts[len(res.JobCounts)-1])
	if one <= 0.3 {
		t.Errorf("single-job final accuracy %.3f too low to be meaningful", one)
	}
	if many > one+0.02 {
		t.Errorf("contention should not improve accuracy: 1 job %.3f vs most jobs %.3f", one, many)
	}
}

func TestFigure9Schedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("FL experiment")
	}
	res, err := Figure9(ScaleQuick, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	for _, name := range res.Schedulers {
		if res.Final[name] <= 0.3 {
			t.Errorf("%s final accuracy %.3f too low", name, res.Final[name])
		}
	}
	// Final accuracy must be scheduler-independent (within tolerance).
	lo, hi := 1.0, 0.0
	for _, name := range res.Schedulers {
		if res.Final[name] < lo {
			lo = res.Final[name]
		}
		if res.Final[name] > hi {
			hi = res.Final[name]
		}
	}
	if hi-lo > 0.15 {
		t.Errorf("final accuracies diverge too much across schedulers: %.3f..%.3f", lo, hi)
	}
}
