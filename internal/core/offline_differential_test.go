package core

import (
	"math"
	"math/rand"
	"testing"
)

// randomOfflineInstance draws one differential-test instance. Variants
// stress the regimes the fast engine's tie-breaking and interval logic
// must survive: 0 = mixed uniform windows/costs (some above ν), 1 =
// tie-heavy integer costs on a tiny grid, 2 = degenerate single-slot
// windows with task pile-ups, 3 = dense full-round windows with scarce
// tasks.
func randomOfflineInstance(rng *rand.Rand, variant int) *Instance {
	m := Slot(2 + rng.Intn(9))
	switch variant % 4 {
	case 0:
		return randomInstance(rng, 18, 18, m, 10)
	case 1:
		in := &Instance{Slots: m, Value: 6}
		n := 1 + rng.Intn(14)
		for i := 0; i < n; i++ {
			a := Slot(1 + rng.Intn(int(m)))
			d := a + Slot(rng.Intn(int(m-a)+1))
			in.Bids = append(in.Bids, Bid{
				Phone: PhoneID(i), Arrival: a, Departure: d,
				Cost: float64(1 + rng.Intn(5)), // ties everywhere, some ≥ ν
			})
		}
		sortBidsByArrival(in)
		addSortedTasks(in, rng, rng.Intn(12))
		return in
	case 2:
		in := &Instance{Slots: m, Value: 8}
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			a := Slot(1 + rng.Intn(int(m)))
			in.Bids = append(in.Bids, Bid{
				Phone: PhoneID(i), Arrival: a, Departure: a, // one-slot windows
				Cost: 1 + rng.Float64()*9,
			})
		}
		sortBidsByArrival(in)
		// Pile the tasks onto few slots so capacities contend.
		numTasks := rng.Intn(10)
		hot := Slot(1 + rng.Intn(int(m)))
		arr := make([]int, numTasks)
		for k := range arr {
			if rng.Intn(2) == 0 {
				arr[k] = int(hot)
			} else {
				arr[k] = 1 + rng.Intn(int(m))
			}
		}
		insertTasks(in, arr)
		return in
	default:
		in := &Instance{Slots: m, Value: 12}
		n := 1 + rng.Intn(16)
		for i := 0; i < n; i++ {
			in.Bids = append(in.Bids, Bid{
				Phone: PhoneID(i), Arrival: 1, Departure: m, // full-round windows
				Cost: rng.Float64() * 14,
			})
		}
		addSortedTasks(in, rng, rng.Intn(6))
		return in
	}
}

func sortBidsByArrival(in *Instance) {
	b := in.Bids
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].Arrival < b[j-1].Arrival; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
	for i := range b {
		b[i].Phone = PhoneID(i)
	}
}

func addSortedTasks(in *Instance, rng *rand.Rand, numTasks int) {
	arr := make([]int, numTasks)
	for k := range arr {
		arr[k] = 1 + rng.Intn(int(in.Slots))
	}
	insertTasks(in, arr)
}

func insertTasks(in *Instance, arr []int) {
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	for k, a := range arr {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(k), Arrival: Slot(a)})
	}
}

// assertOfflineAgreement checks two offline outcomes for the VCG
// agreement contract: equal optimal welfare, each allocation's realized
// value equal to its reported welfare, and payment agreement that is
// robust to tie-breaking. When both engines allocate phone i its
// payments must match exactly; when only one does, the other optimum
// excludes i, so ω*(B₋ᵢ) = ω*(B) and the VCG payment must equal i's own
// bid; losers in both are paid zero. Individual rationality (p_i ≥ b_i)
// is asserted for every winner.
func assertOfflineAgreement(t *testing.T, tag string, in *Instance, nameA, nameB string, a, b *Outcome) {
	t.Helper()
	const eps = 1e-9
	if math.Abs(a.Welfare-b.Welfare) > eps {
		t.Fatalf("%s: welfare %s=%g %s=%g", tag, nameA, a.Welfare, nameB, b.Welfare)
	}
	if v := a.Allocation.Welfare(in); math.Abs(v-a.Welfare) > eps {
		t.Fatalf("%s: %s allocation value %g != reported welfare %g", tag, nameA, v, a.Welfare)
	}
	if v := b.Allocation.Welfare(in); math.Abs(v-b.Welfare) > eps {
		t.Fatalf("%s: %s allocation value %g != reported welfare %g", tag, nameB, v, b.Welfare)
	}
	if err := a.Allocation.Validate(in); err != nil {
		t.Fatalf("%s: %s allocation invalid: %v", tag, nameA, err)
	}
	if err := b.Allocation.Validate(in); err != nil {
		t.Fatalf("%s: %s allocation invalid: %v", tag, nameB, err)
	}
	for i := range in.Bids {
		pa, pb := a.Payments[i], b.Payments[i]
		aw := a.Allocation.ByPhone[i] != NoTask
		bw := b.Allocation.ByPhone[i] != NoTask
		switch {
		case aw && bw:
			if math.Abs(pa-pb) > eps {
				t.Fatalf("%s: phone %d paid %s=%g %s=%g (bid %+v)", tag, i, nameA, pa, nameB, pb, in.Bids[i])
			}
		case aw != bw:
			// The engines picked different optima, so an optimum without
			// phone i exists: ω*(B₋ᵢ) = ω*(B) and VCG pays exactly the bid.
			p := pa
			if bw {
				p = pb
			}
			if math.Abs(p-in.Bids[i].Cost) > eps {
				t.Fatalf("%s: optional winner %d paid %g, want its bid %g", tag, i, p, in.Bids[i].Cost)
			}
		default:
			if pa != 0 || pb != 0 {
				t.Fatalf("%s: loser %d paid %s=%g %s=%g", tag, i, nameA, pa, nameB, pb)
			}
		}
		if aw && pa < in.Bids[i].Cost-eps {
			t.Fatalf("%s: %s violates IR for phone %d: paid %g < bid %g", tag, nameA, i, pa, in.Bids[i].Cost)
		}
		if bw && pb < in.Bids[i].Cost-eps {
			t.Fatalf("%s: %s violates IR for phone %d: paid %g < bid %g", tag, nameB, i, pb, in.Bids[i].Cost)
		}
	}
}

// TestOfflineDifferentialSweep is the offline analog of the online
// engines' 208-round sweep: 240 seeded instances across mixed-density,
// tie-heavy, and degenerate-window regimes, asserting the fast interval
// engine against the Hungarian+VCG oracle on every one. `make check` greps
// for this test's PASS line, so it must never be skipped or renamed
// without updating the Makefile gate.
func TestOfflineDifferentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	fast := &OfflineMechanism{}
	oracle := OfflineOracle{}

	for trial := 0; trial < 240; trial++ {
		in := randomOfflineInstance(rng, trial)
		tag := itoaTrial(trial)
		fastOut := mustRun(t, fast, in)
		oracleOut := mustRun(t, oracle, in)
		assertOfflineAgreement(t, tag, in, "interval", "hungarian", fastOut, oracleOut)
		// Welfare() must agree with Run().
		w, err := fast.Welfare(in)
		if err != nil {
			t.Fatalf("%s: welfare: %v", tag, err)
		}
		if math.Abs(w-fastOut.Welfare) > 1e-9 {
			t.Fatalf("%s: Welfare()=%g, Run().Welfare=%g", tag, w, fastOut.Welfare)
		}
	}
}

func itoaTrial(n int) string {
	if n == 0 {
		return "trial 0"
	}
	buf := [8]byte{}
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return "trial " + string(buf[i:])
}

// FuzzOfflineVCG cross-checks the fast engine against the Hungarian+VCG
// oracle — welfare, allocation value, payments, and the IR identity
// p_i ≥ b_i — on arbitrary seeded instances. Run short via
// `make fuzz-smoke`.
func FuzzOfflineVCG(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, uint8(seed))
	}
	fast := &OfflineMechanism{}
	oracle := OfflineOracle{}
	f.Fuzz(func(t *testing.T, seed int64, variant uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := randomOfflineInstance(rng, int(variant))
		fastOut, err := fast.Run(in)
		if err != nil {
			t.Fatalf("interval: %v", err)
		}
		oracleOut, err := oracle.Run(in)
		if err != nil {
			t.Fatalf("hungarian: %v", err)
		}
		assertOfflineAgreement(t, "fuzz", in, "interval", "hungarian", fastOut, oracleOut)
	})
}
