package fabric

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestQuarantineSkipsPartitionOnGrant(t *testing.T) {
	a := mustNew(t, testConfig())
	defer a.Close()

	a.SetQuarantine(0, true)
	if !a.Quarantined(0) || a.Quarantined(1) {
		t.Fatal("quarantine flags wrong after SetQuarantine(0, true)")
	}

	l1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l1.Partition() != 1 {
		t.Fatalf("granted quarantined partition %d, want 1", l1.Partition())
	}

	// Both partitions unavailable now (one leased, one quarantined): an
	// Acquire must block until the quarantine lifts.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire with no grantable partitions returned %v", err)
	}

	a.SetQuarantine(0, false)
	l2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Partition() != 0 {
		t.Fatalf("granted partition %d after quarantine lifted, want 0", l2.Partition())
	}
	l1.Release()
	l2.Release()

	st := a.Stats()
	if st.QuarantinesTotal != 1 {
		t.Fatalf("QuarantinesTotal = %d, want 1", st.QuarantinesTotal)
	}
	if st.QuarantinedPartitions != 0 {
		t.Fatalf("QuarantinedPartitions = %d, want 0", st.QuarantinedPartitions)
	}
}

func TestQuarantineWakesBlockedAcquire(t *testing.T) {
	a := mustNew(t, testConfig())
	defer a.Close()

	a.SetQuarantine(0, true)
	a.SetQuarantine(1, true)
	if got := a.Stats().QuarantinedPartitions; got != 2 {
		t.Fatalf("QuarantinedPartitions = %d, want 2", got)
	}

	granted := make(chan *Lease, 1)
	go func() {
		l, err := a.Acquire(context.Background())
		if err == nil {
			granted <- l
		}
	}()
	select {
	case <-granted:
		t.Fatal("Acquire succeeded with every partition quarantined")
	case <-time.After(20 * time.Millisecond):
	}

	a.SetQuarantine(1, false)
	select {
	case l := <-granted:
		if l.Partition() != 1 {
			t.Fatalf("granted partition %d, want 1", l.Partition())
		}
		l.Release()
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake when quarantine lifted")
	}
}

func TestQuarantineDoesNotRevokeOutstandingLease(t *testing.T) {
	a := mustNew(t, testConfig())
	defer a.Close()

	l, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a.SetQuarantine(l.Partition(), true)
	select {
	case <-l.Preempted():
		t.Fatal("quarantine preempted an outstanding lease")
	default:
	}
	l.Release()

	// Released partition stays out of the grant pool while quarantined.
	l2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Partition() == l.Partition() {
		t.Fatal("re-granted a quarantined partition after release")
	}
	l2.Release()
}
