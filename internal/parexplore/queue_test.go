package parexplore

import "testing"

// TestLagAllowance pins the cap on units busy workers take: once lagBase
// units plus one per lagPer paths have gone to busy workers, a busy worker
// that has run past the queue's smallest unit no longer takes it and
// donors no longer donate to it, while an idle worker is still served.
// Without a signature cut busy workers get nothing at all.
func TestLagAllowance(t *testing.T) {
	q := newQueue(2, true) // worker 1 stays idle
	for i := 0; i <= lagBase; i++ {
		q.publish(0, "b", 2)
		q.put(unit{sig: "a"})
		if _, ok := q.take(0); ok != (i < lagBase) {
			t.Fatalf("take %d: ok=%v, want %v", i, ok, i < lagBase)
		}
	}
	if q.wants(1, "a") {
		t.Fatal("a donor still donates to a busy worker past the allowance")
	}
	if u, ok := q.get(1); !ok || u.sig != "a" {
		t.Fatalf("idle worker got %q (ok=%v), want the queued unit", u.sig, ok)
	}
	q.publish(1, "", 0) // worker 1 ran its unit and holds nothing
	if !q.wants(0, "a") {
		t.Fatal("a donor no longer donates to an idle worker")
	}
	for k := 0; k < lagPer; k++ {
		q.publish(0, "b", 2)
	}
	q.put(unit{sig: "a"})
	if _, ok := q.take(0); !ok {
		t.Fatalf("take refused after %d more paths", lagPer)
	}

	q = newQueue(2, false)
	q.publish(0, "b", 2)
	q.put(unit{sig: "a"})
	if _, ok := q.take(0); ok {
		t.Fatal("a busy worker took a unit in a run without a cut")
	}
}
