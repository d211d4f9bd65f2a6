package hashring

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringKeys synthesizes a deterministic device-ID workload; no RNG, so the
// balance and movement assertions below are fully pinned.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("load-%06d", i)
	}
	return keys
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := New([]string{"n1", "n2", "n3"}, 128)
	b := New([]string{"n3", "n1", "n2", "n1"}, 128) // shuffled + duplicate
	if a.Size() != 3 || b.Size() != 3 {
		t.Fatalf("sizes %d, %d; want 3", a.Size(), b.Size())
	}
	for _, k := range ringKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q differs across member orderings: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
	// Rebuilding from scratch yields the identical mapping.
	c := New([]string{"n1", "n2", "n3"}, 128)
	for _, k := range ringKeys(2000) {
		if a.Owner(k) != c.Owner(k) {
			t.Fatalf("owner of %q not deterministic across builds", k)
		}
	}
}

// TestRingBalance pins the ISSUE's balance budget: at 128 vnodes the most
// loaded member of a small cluster stays within 15% of the mean.
func TestRingBalance(t *testing.T) {
	keys := ringKeys(100000)
	for _, members := range [][]string{
		{"127.0.0.1:9001", "127.0.0.1:9002"},
		{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
		{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"},
	} {
		r := New(members, 128)
		counts := make(map[string]int, len(members))
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		mean := float64(len(keys)) / float64(len(members))
		for m, n := range counts {
			dev := (float64(n) - mean) / mean
			if dev > 0.15 || dev < -0.15 {
				t.Errorf("%d members: %s owns %d keys (%.1f%% off the mean %.0f)",
					len(members), m, n, 100*dev, mean)
			}
		}
		if len(counts) != len(members) {
			t.Errorf("%d members but only %d own keys", len(members), len(counts))
		}
	}
}

// TestRingMinimalMovement asserts the consistent-hashing contract: adding a
// member only moves keys onto the new member (roughly its fair share), and
// removing one only moves the removed member's keys.
func TestRingMinimalMovement(t *testing.T) {
	keys := ringKeys(50000)
	three := New([]string{"a", "b", "c"}, 128)
	four := New([]string{"a", "b", "c", "d"}, 128)

	moved := 0
	for _, k := range keys {
		before, after := three.Owner(k), four.Owner(k)
		if before == after {
			continue
		}
		moved++
		if after != "d" {
			t.Fatalf("adding d moved %q from %q to %q (only moves onto the new member are allowed)", k, before, after)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("adding a 4th member moved %.1f%% of keys; want roughly a fair share (~25%%)", 100*frac)
	}

	// Removal: keys not owned by the removed member stay put.
	for _, k := range keys {
		if four.Owner(k) == "d" {
			continue
		}
		if three.Owner(k) != four.Owner(k) {
			t.Fatalf("removing d moved %q, which d never owned", k)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	if owner := New(nil, 128).Owner("x"); owner != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", owner)
	}
	one := New([]string{"solo"}, 16)
	for _, k := range ringKeys(100) {
		if one.Owner(k) != "solo" {
			t.Fatal("single-member ring must own everything")
		}
	}
}

// TestOwnerIndexAgreesWithOwner: the index the batch plan routes by names the
// member Owner names, on every ring size a small federation has.
func TestOwnerIndexAgreesWithOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 5; n++ {
		var members []string
		for i := 0; i < n; i++ {
			members = append(members, fmt.Sprintf("10.0.0.%d:8081", n-i)) // unsorted on purpose
		}
		r := New(members, 0)
		for k := 0; k < 10000; k++ {
			key := fmt.Sprintf("dev-%x", rng.Uint64())
			if i := r.OwnerIndex(key); i < 0 || i >= n || r.Members()[i] != r.Owner(key) {
				t.Fatalf("%d members, key %q: OwnerIndex %d, Owner %q, Members %q", n, key, i, r.Owner(key), r.Members())
			}
		}
	}
	if i := New(nil, 0).OwnerIndex("x"); i != -1 {
		t.Fatalf("empty ring OwnerIndex = %d, want -1", i)
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := New([]string{"n1", "n2", "n3", "n4"}, 128)
	keys := ringKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(keys[i&1023])
	}
}
