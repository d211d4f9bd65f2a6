package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAddSub(t *testing.T) {
	t0 := Time(1000)
	t1 := t0.Add(5 * Second)
	if t1 != Time(6000) {
		t.Fatalf("Add: got %d, want 6000", t1)
	}
	if d := t1.Sub(t0); d != 5*Second {
		t.Fatalf("Sub: got %v, want 5s", d)
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	f := func(base int64, delta int32) bool {
		t0 := Time(base % (1 << 40))
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDayIndex(t *testing.T) {
	cases := []struct {
		t    Time
		want int
	}{
		{0, 0},
		{Time(Day) - 1, 0},
		{Time(Day), 1},
		{Time(36 * Hour), 1},
		{Time(3*Day) + 5, 3},
		{-1, -1},
		{-Time(Day), -1},
		{-Time(Day) - 1, -2},
	}
	for _, c := range cases {
		if got := c.t.DayIndex(); got != c.want {
			t.Errorf("DayIndex(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if s := (90 * Second).Seconds(); s != 90 {
		t.Errorf("Seconds = %v", s)
	}
	if m := (90 * Second).Minutes(); m != 1.5 {
		t.Errorf("Minutes = %v", m)
	}
	if h := (2 * Day).Hours(); h != 48 {
		t.Errorf("Hours = %v", h)
	}
	if d := FromSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("FromSeconds = %v", d)
	}
	if d := FromStd(2 * time.Second); d != 2*Second {
		t.Errorf("FromStd = %v", d)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0:00:00"},
		{90 * Second, "0:01:30"},
		{Hour + 2*Minute + 3*Second, "1:02:03"},
		{25*Hour + 500*Millisecond, "25:00:00.500"},
		{-90 * Second, "-0:01:30"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Clamp(5, 1, 10) != 5 || Clamp(-2, 1, 10) != 1 || Clamp(20, 1, 10) != 10 {
		t.Error("Clamp broken")
	}
}
