package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 40, NumBuckets - 1}, {math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
		h.Observe(c.ns)
	}
	s := h.Snapshot()
	if got := s.Count(); got != int64(len(cases)) {
		t.Fatalf("Count() = %d, want %d", got, len(cases))
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 100 observations of ~1µs and one of ~1ms: p50 must sit near 1µs and
	// p99.9 near 1ms, within the 2x bucket resolution.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 512 || p50 > 2048 {
		t.Errorf("p50 = %v ns, want ~1000 within bucket resolution", p50)
	}
	if p999 := s.Quantile(0.999); p999 < 500_000 || p999 > 2_100_000 {
		t.Errorf("p99.9 = %v ns, want ~1e6 within bucket resolution", p999)
	}
	if max := s.MaxNs(); max < 1_000_000 || max > 2_100_000 {
		t.Errorf("MaxNs = %v, want the 1ms bucket's upper bound", max)
	}
}

// TestHistConcurrent hammers one histogram from many writers while a reader
// snapshots continuously; under -race this pins the lock-free contract (no
// torn reads, monotonic counts).
func TestHistConcurrent(t *testing.T) {
	var h Hist
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var prev int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			s := h.Snapshot()
			if n := s.Count(); n < prev {
				t.Errorf("snapshot count went backwards: %d after %d", n, prev)
				return
			} else {
				prev = n
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	for h.Snapshot().Count() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
}
