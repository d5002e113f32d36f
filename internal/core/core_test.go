package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// paperInstance reconstructs the worked example of the paper's Fig. 4/5:
// seven phones, five slots, one task per slot. Phone numbering in the
// paper is 1-based; PhoneID i here is paper phone i+1.
//
//	phone 1: [2,5] cost 3    phone 5: [2,2] cost 4
//	phone 2: [1,4] cost 5    phone 6: [3,5] cost 8
//	phone 3: [3,5] cost 11   phone 7: [1,3] cost 6
//	phone 4: [4,5] cost 9
//
// This reproduces every number quoted in the paper: greedy winners
// 2,1,7,6,4 in slots 1..5; phone 1's critical payment 9; the per-slot
// second-price payments 6 and 4; and the Fig. 5(b) arrival-delay gain.
func paperInstance() *Instance {
	in := &Instance{Slots: 5, Value: 20}
	windows := [][2]Slot{{2, 5}, {1, 4}, {3, 5}, {4, 5}, {2, 2}, {3, 5}, {1, 3}}
	costs := []float64{3, 5, 11, 9, 4, 8, 6}
	for i := range windows {
		in.Bids = append(in.Bids, Bid{
			Phone: PhoneID(i), Arrival: windows[i][0], Departure: windows[i][1], Cost: costs[i],
		})
	}
	for k := 0; k < 5; k++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(k), Arrival: Slot(k + 1)})
	}
	return in
}

func TestBidCovers(t *testing.T) {
	b := Bid{Arrival: 3, Departure: 5}
	for _, tc := range []struct {
		slot Slot
		want bool
	}{{2, false}, {3, true}, {4, true}, {5, true}, {6, false}} {
		if got := b.Covers(tc.slot); got != tc.want {
			t.Errorf("Covers(%d) = %v, want %v", tc.slot, got, tc.want)
		}
	}
}

func TestBidValidate(t *testing.T) {
	cases := []struct {
		name    string
		bid     Bid
		wantErr string
	}{
		{"ok", Bid{Phone: 0, Arrival: 1, Departure: 10, Cost: 5}, ""},
		{"negative phone", Bid{Phone: -2, Arrival: 1, Departure: 2}, "negative phone"},
		{"arrival zero", Bid{Phone: 0, Arrival: 0, Departure: 2}, "outside round"},
		{"departure past m", Bid{Phone: 0, Arrival: 1, Departure: 11}, "outside round"},
		{"inverted window", Bid{Phone: 0, Arrival: 5, Departure: 2}, "after departure"},
		{"negative cost", Bid{Phone: 0, Arrival: 1, Departure: 2, Cost: -1}, "non-negative finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.bid.Validate(10)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want contains %q", err, tc.wantErr)
			}
		})
	}
}

func TestInstanceValidate(t *testing.T) {
	good := paperInstance()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}

	t.Run("bad round length", func(t *testing.T) {
		in := &Instance{Slots: 0}
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("round length beyond int32", func(t *testing.T) {
		m := Slot(math.MaxInt32)
		m++ // at run time: on a 32-bit int it wraps, and is rejected as < 1
		in := &Instance{Slots: m, Value: 1}
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("misnumbered bid", func(t *testing.T) {
		in := paperInstance()
		in.Bids[3].Phone = 9
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("misnumbered task", func(t *testing.T) {
		in := paperInstance()
		in.Tasks[2].ID = 7
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("task out of order", func(t *testing.T) {
		in := paperInstance()
		in.Tasks[0].Arrival = 4
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("task outside round", func(t *testing.T) {
		in := paperInstance()
		in.Tasks[4].Arrival = 9
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("negative value", func(t *testing.T) {
		in := paperInstance()
		in.Value = -1
		if in.Validate() == nil {
			t.Fatal("want error")
		}
	})
}

func TestTasksPerSlot(t *testing.T) {
	in := paperInstance()
	r := in.TasksPerSlot()
	if len(r) != 5 {
		t.Fatalf("len = %d, want 5", len(r))
	}
	for i, v := range r {
		if v != 1 {
			t.Fatalf("r[%d] = %d, want 1", i, v)
		}
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	in := paperInstance()
	c := in.Clone()
	c.Bids[0].Cost = 99
	c.Tasks[0].Arrival = 5
	if in.Bids[0].Cost == 99 || in.Tasks[0].Arrival == 5 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestWithoutPhone(t *testing.T) {
	in := paperInstance()
	r := in.WithoutPhone(2)
	if len(r.Bids) != 6 {
		t.Fatalf("len = %d, want 6", len(r.Bids))
	}
	for _, b := range r.Bids {
		if b.Phone == 2 {
			t.Fatal("phone 2 still present")
		}
	}
	if len(in.Bids) != 7 {
		t.Fatal("original modified")
	}
}

func TestAllocationBookkeeping(t *testing.T) {
	a := NewAllocation(3, 4)
	if a.NumServed() != 0 || len(a.Winners()) != 0 {
		t.Fatal("fresh allocation not empty")
	}
	a.Assign(1, 2, 5)
	a.Assign(0, 3, 1)
	if a.NumServed() != 2 {
		t.Fatalf("NumServed = %d, want 2", a.NumServed())
	}
	w := a.Winners()
	if len(w) != 2 || w[0] != 2 || w[1] != 3 {
		t.Fatalf("Winners = %v, want [2 3]", w)
	}
	as := a.Assignments()
	if len(as) != 2 || as[0] != (Assignment{Task: 0, Phone: 3, Slot: 1}) || as[1] != (Assignment{Task: 1, Phone: 2, Slot: 5}) {
		t.Fatalf("Assignments = %v", as)
	}
}

func TestAllocationValidate(t *testing.T) {
	in := paperInstance()
	a := NewAllocation(5, 7)
	a.Assign(0, 1, 1) // phone 2 (id 1) serves task 0 in slot 1: window [1,4] ok
	if err := a.Validate(in); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}

	t.Run("outside window", func(t *testing.T) {
		b := NewAllocation(5, 7)
		b.Assign(0, 3, 1) // phone 4 (id 3) has window [4,5]
		if b.Validate(in) == nil {
			t.Fatal("want window violation")
		}
	})
	t.Run("wrong slot", func(t *testing.T) {
		b := NewAllocation(5, 7)
		b.Assign(0, 1, 2) // task 0 arrives in slot 1, not 2
		if b.Validate(in) == nil {
			t.Fatal("want slot mismatch")
		}
	})
	t.Run("size mismatch", func(t *testing.T) {
		b := NewAllocation(4, 7)
		if b.Validate(in) == nil {
			t.Fatal("want size mismatch")
		}
	})
	t.Run("unmirrored maps", func(t *testing.T) {
		b := NewAllocation(5, 7)
		b.ByTask[0] = 1 // set one side only
		if b.Validate(in) == nil {
			t.Fatal("want mirror violation")
		}
	})
}

func TestOutcomeAccessors(t *testing.T) {
	in := paperInstance()
	a := NewAllocation(5, 7)
	a.Assign(0, 1, 1)
	a.Assign(1, 0, 2)
	out := &Outcome{Allocation: a, Payments: make([]float64, 7), Welfare: a.Welfare(in)}
	out.Payments[1] = 6
	out.Payments[0] = 9

	if got := out.TotalPayment(); got != 15 {
		t.Fatalf("TotalPayment = %g, want 15", got)
	}
	// Winner costs: phone 0 cost 3, phone 1 cost 5.
	if got := out.TotalWinnerCost(in); got != 8 {
		t.Fatalf("TotalWinnerCost = %g, want 8", got)
	}
	// σ = (15-8)/8.
	if got := out.OverpaymentRatio(in); got < 0.874 || got > 0.876 {
		t.Fatalf("OverpaymentRatio = %g, want 0.875", got)
	}
	// Welfare = (20-3)+(20-5) = 32.
	if out.Welfare != 32 {
		t.Fatalf("Welfare = %g, want 32", out.Welfare)
	}
	if got := out.Utility(0, 3); got != 6 {
		t.Fatalf("Utility(winner) = %g, want 6", got)
	}
	if got := out.Utility(4, 100); got != 0 {
		t.Fatalf("Utility(loser) = %g, want 0", got)
	}
}

func TestOverpaymentRatioNoWinners(t *testing.T) {
	in := paperInstance()
	out := &Outcome{Allocation: NewAllocation(5, 7), Payments: make([]float64, 7)}
	if got := out.OverpaymentRatio(in); got != 0 {
		t.Fatalf("OverpaymentRatio with no winners = %g, want 0", got)
	}
}

// randomInstance generates a structurally valid instance for property
// tests: bids ordered by arrival slot, tasks in arrival order.
func randomInstance(rng *rand.Rand, maxPhones, maxTasks int, m Slot, value float64) *Instance {
	in := &Instance{Slots: m, Value: value}
	n := 1 + rng.Intn(maxPhones)
	type win struct {
		a, d Slot
		c    float64
	}
	wins := make([]win, n)
	for i := range wins {
		a := Slot(1 + rng.Intn(int(m)))
		d := a + Slot(rng.Intn(int(m-a)+1))
		wins[i] = win{a, d, rng.Float64() * value * 1.2}
	}
	// Sort by arrival so streaming replays assign the same IDs.
	for i := 1; i < len(wins); i++ {
		for j := i; j > 0 && wins[j].a < wins[j-1].a; j-- {
			wins[j], wins[j-1] = wins[j-1], wins[j]
		}
	}
	for i, w := range wins {
		in.Bids = append(in.Bids, Bid{Phone: PhoneID(i), Arrival: w.a, Departure: w.d, Cost: w.c})
	}
	numTasks := rng.Intn(maxTasks + 1)
	arr := make([]int, numTasks)
	for k := range arr {
		arr[k] = 1 + rng.Intn(int(m))
	}
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	for k, a := range arr {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(k), Arrival: Slot(a)})
	}
	return in
}

// TestValidateRejectsNonFiniteNumbers: NaN and ±Inf costs or values
// would poison cost ordering (every comparison with NaN is false), so
// validation must refuse them outright.
func TestValidateRejectsNonFiniteNumbers(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := Bid{Phone: 0, Arrival: 1, Departure: 2, Cost: bad}
		if b.Validate(5) == nil {
			t.Errorf("bid cost %v accepted", bad)
		}
		in := paperInstance()
		in.Value = bad
		if in.Validate() == nil {
			t.Errorf("instance value %v accepted", bad)
		}
	}
}
