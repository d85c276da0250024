package hostsel

import (
	"math/rand"
	"testing"
	"time"

	"sprite/internal/rpc"
)

// randEntry draws an arbitrary vector entry from a bounded host universe.
func randEntry(rng *rand.Rand, hosts int) VectorEntry {
	return VectorEntry{
		Host:      rpc.HostID(1 + rng.Intn(hosts)),
		Available: rng.Intn(2) == 0,
		Load:      float64(rng.Intn(800)) / 100,
		IdleSince: time.Duration(rng.Intn(600)) * time.Second,
		FreePages: rng.Intn(4096),
		Epoch:     rpc.Epoch(1 + rng.Intn(3)),
		Age:       time.Duration(rng.Intn(10000)) * time.Millisecond,
	}
}

// TestMergeCommutativeIdempotent: merging identical batches is idempotent,
// and merging two batches in either order yields the same vector.
func TestMergeCommutativeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := make([]VectorEntry, rng.Intn(12))
		b := make([]VectorEntry, rng.Intn(12))
		for i := range a {
			a[i] = randEntry(rng, 8)
		}
		for i := range b {
			b[i] = randEntry(rng, 8)
		}
		v1 := NewLoadVector(16)
		v1.Merge(a)
		snap := v1.Snapshot()
		v1.Merge(a) // idempotent: same batch again changes nothing
		if got := v1.Snapshot(); got != snap {
			t.Fatalf("trial %d: merge not idempotent:\nbefore:\n%s\nafter:\n%s", trial, snap, got)
		}

		ab := NewLoadVector(16)
		ab.Merge(a)
		ab.Merge(b)
		ba := NewLoadVector(16)
		ba.Merge(b)
		ba.Merge(a)
		// Batches may contain several samples for one host; keep only
		// trials where per-host winners are unambiguous (distinct
		// freshness), which the protocol guarantees by construction —
		// each host stamps its own samples with strictly growing epochs
		// or strictly shrinking age.
		if unambiguous(append(append([]VectorEntry(nil), a...), b...)) {
			if ab.Snapshot() != ba.Snapshot() {
				t.Fatalf("trial %d: merge not commutative:\na,b:\n%s\nb,a:\n%s", trial, ab.Snapshot(), ba.Snapshot())
			}
		}
	}
}

// unambiguous reports whether no two entries for the same host tie on
// (epoch, age) with different payloads — the only case where merge order
// could matter.
func unambiguous(entries []VectorEntry) bool {
	type key struct {
		h rpc.HostID
		e rpc.Epoch
		a time.Duration
	}
	seen := make(map[key]VectorEntry)
	for _, e := range entries {
		k := key{e.Host, e.Epoch, e.Age}
		if prev, ok := seen[k]; ok && prev != e {
			return false
		}
		seen[k] = e
	}
	return true
}

// TestDecayAgesMonotone: decay only ever grows ages, and never below the
// elapsed amount.
func TestDecayAgesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := NewLoadVector(32)
	for i := 0; i < 20; i++ {
		v.Update(randEntry(rng, 20))
	}
	for step := 0; step < 50; step++ {
		before := make(map[rpc.HostID]time.Duration)
		for _, e := range v.Entries() {
			before[e.Host] = e.Age
		}
		elapsed := time.Duration(rng.Intn(2000)) * time.Millisecond
		v.Decay(elapsed, 0) // no staleness eviction: pure aging
		for _, e := range v.Entries() {
			want := before[e.Host] + elapsed
			if e.Age != want {
				t.Fatalf("step %d: host %v age %v, want %v", step, e.Host, e.Age, want)
			}
		}
	}
}

// TestDecayEvictsStale: entries whose age passes the bound disappear.
func TestDecayEvictsStale(t *testing.T) {
	v := NewLoadVector(8)
	v.Update(VectorEntry{Host: 1, Available: true, Epoch: 1, Age: 0})
	v.Update(VectorEntry{Host: 2, Available: true, Epoch: 1, Age: 9 * time.Second})
	if n := v.Decay(2*time.Second, 10*time.Second); n != 1 {
		t.Fatalf("evicted %d entries, want 1", n)
	}
	if _, ok := v.Get(2); ok {
		t.Fatal("stale entry survived decay")
	}
	if e, ok := v.Get(1); !ok || e.Age != 2*time.Second {
		t.Fatalf("young entry: %+v ok=%t, want age 2s", e, ok)
	}
}

// TestVectorBoundNeverExceeded: no operation sequence grows the vector
// past its bound.
func TestVectorBoundNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const bound = 8
	v := NewLoadVector(bound)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(4) {
		case 0:
			v.Update(randEntry(rng, 64))
		case 1:
			v.Put(randEntry(rng, 64))
		case 2:
			batch := make([]VectorEntry, rng.Intn(10))
			for j := range batch {
				batch[j] = randEntry(rng, 64)
			}
			v.Merge(batch)
		case 3:
			v.Decay(time.Duration(rng.Intn(500))*time.Millisecond, 8*time.Second)
		}
		if v.Len() > bound {
			t.Fatalf("op %d: vector has %d entries, bound %d", i, v.Len(), bound)
		}
	}
}

// TestEvictionHintBeatsStalePositive: an eviction hint at the same (or a
// later) epoch retracts a positive entry no matter how young the entry
// claims to be.
func TestEvictionHintBeatsStalePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		e := randEntry(rng, 4)
		e.Available = true
		v := NewLoadVector(8)
		v.Put(e)
		h := EvictHint{Host: e.Host, Epoch: e.Epoch + rpc.Epoch(rng.Intn(2)), Age: time.Duration(rng.Intn(5000)) * time.Millisecond}
		if !v.ApplyHint(h) {
			t.Fatalf("trial %d: hint %+v did not beat positive entry %+v", trial, h, e)
		}
		if got, _ := v.Get(e.Host); got.Available {
			t.Fatalf("trial %d: entry still positive after hint: %+v", trial, got)
		}
		// And the converse: an entry from a strictly newer boot epoch is
		// newer truth than the hint and must survive.
		v2 := NewLoadVector(8)
		newer := e
		newer.Epoch = h.Epoch + 1
		v2.Put(newer)
		if v2.ApplyHint(h) {
			t.Fatalf("trial %d: hint about epoch %d retracted entry from epoch %d", trial, h.Epoch, newer.Epoch)
		}
	}
}

// TestEpochAdvanceInvalidatesOlderEntries: a reboot invalidates every
// sample taken under an earlier incarnation.
func TestEpochAdvanceInvalidatesOlderEntries(t *testing.T) {
	v := NewLoadVector(8)
	old := VectorEntry{Host: 3, Available: true, Epoch: 1, Age: time.Millisecond}
	v.Put(old)

	// A very old (high-age) sample from a newer epoch still beats a young
	// sample from the previous incarnation.
	reborn := VectorEntry{Host: 3, Available: false, Epoch: 2, Age: time.Hour}
	if !v.Update(reborn) {
		t.Fatal("newer-epoch entry rejected")
	}
	if e, _ := v.Get(3); e.Epoch != 2 || e.Available {
		t.Fatalf("entry after epoch advance: %+v, want epoch 2 unavailable", e)
	}
	// And the pre-reboot sample can never displace it again.
	if v.Update(old) {
		t.Fatal("older-epoch entry re-accepted after epoch advance")
	}

}

// TestNewestHalfYoungestFirst: the gossip payload is the youngest ceil(n/2)
// entries in canonical order.
func TestNewestHalfYoungestFirst(t *testing.T) {
	v := NewLoadVector(16)
	for i := 1; i <= 5; i++ {
		v.Put(VectorEntry{Host: rpc.HostID(i), Epoch: 1, Age: time.Duration(i) * time.Second})
	}
	half := v.NewestHalf()
	if len(half) != 3 {
		t.Fatalf("newest half has %d entries, want 3", len(half))
	}
	for i, e := range half {
		if e.Host != rpc.HostID(i+1) {
			t.Fatalf("newest half[%d] = %v, want host%d", i, e.Host, i+1)
		}
	}
}
