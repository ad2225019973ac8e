package vclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(FromSeconds(1e-6))
	if c.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", c.Now())
	}
	c.Advance(-5)
	if c.Now() != 1000 {
		t.Fatal("negative advance moved the clock")
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(100)
	if got := c.AdvanceTo(50); got != 100 {
		t.Fatalf("AdvanceTo(50) = %d, want 100 (no rewind)", got)
	}
	if got := c.AdvanceTo(500); got != 500 {
		t.Fatalf("AdvanceTo(500) = %d", got)
	}
}

func TestFromSecondsRounds(t *testing.T) {
	if d := FromSeconds(1.5e-9); d != 2 {
		t.Fatalf("FromSeconds(1.5ns) = %d, want 2", d)
	}
	if d := FromSeconds(-1); d != 0 {
		t.Fatalf("negative seconds produced %d", d)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	d := FromSeconds(3.25e-3)
	if got := Time(d).Seconds(); got < 3.2499e-3 || got > 3.2501e-3 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestGroupSyncMax(t *testing.T) {
	g := NewGroup(3)
	var wg sync.WaitGroup
	results := make([]Time, 3)
	times := []Time{10, 300, 42}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.Sync(times[i])
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != 300 {
			t.Fatalf("participant %d got %d, want 300", i, r)
		}
	}
}

func TestGroupReusableEpochs(t *testing.T) {
	g := NewGroup(2)
	for epoch := 0; epoch < 100; epoch++ {
		var wg sync.WaitGroup
		var a, b Time
		wg.Add(2)
		go func() { defer wg.Done(); a = g.Sync(Time(epoch)) }()
		go func() { defer wg.Done(); b = g.Sync(Time(epoch * 2)) }()
		wg.Wait()
		want := Time(epoch * 2)
		if epoch == 0 {
			want = 0
		}
		if a != want || b != want {
			t.Fatalf("epoch %d: got %d/%d want %d", epoch, a, b, want)
		}
	}
}

func TestGroupSingleParticipant(t *testing.T) {
	g := NewGroup(1)
	if got := g.Sync(77); got != 77 {
		t.Fatalf("Sync = %d", got)
	}
	if got := g.Sync(33); got != 33 {
		t.Fatalf("second epoch Sync = %d", got)
	}
}

func TestGroupSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup(0) did not panic")
		}
	}()
	NewGroup(0)
}

// Property: the clock is monotone under any sequence of Advance and
// AdvanceTo operations.
func TestQuickClockMonotone(t *testing.T) {
	f := func(ops []int16) bool {
		var c Clock
		prev := c.Now()
		for _, op := range ops {
			if op >= 0 {
				c.Advance(Duration(op))
			} else {
				c.AdvanceTo(Time(-op) * 3)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: group sync returns the maximum regardless of arrival
// order.
func TestQuickGroupMax(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		g := NewGroup(len(raw))
		var wg sync.WaitGroup
		results := make([]Time, len(raw))
		var want Time
		for _, r := range raw {
			if Time(r) > want {
				want = Time(r)
			}
		}
		for i, r := range raw {
			wg.Add(1)
			go func(i int, tm Time) {
				defer wg.Done()
				results[i] = g.Sync(tm)
			}(i, Time(r))
		}
		wg.Wait()
		for _, got := range results {
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
