package budget

import (
	"bytes"
	"math"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// driveTo streams instance slots (1..upTo] into a fresh auction.
func driveTo(t testing.TB, in *core.Instance, budget float64, eng Engine, upTo core.Slot) *Auction {
	t.Helper()
	a, err := New(in.Slots, in.Value, in.AllocateAtLoss, budget, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.StepThrough(a, in, upTo, nil); err != nil {
		t.Fatal(err)
	}
	return a
}

// finish drives the remaining slots of in through a.
func finish(t testing.TB, a *Auction, in *core.Instance) *core.Outcome {
	t.Helper()
	if err := core.StepThrough(a, in, in.Slots, nil); err != nil {
		t.Fatal(err)
	}
	return a.Outcome()
}

// TestSnapshotRoundTrip checkpoints mid-round — mid-stage — restores,
// and checks (a) the restored auction re-snapshots bit-identically and
// (b) finishing the round from the restore matches finishing the
// original, payments included.
func TestSnapshotRoundTrip(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 20
	scn.PhoneRate = 3
	scn.TaskRate = 2
	for _, eng := range []Engine{StageSampling{}, Frugal{Coverage: 0.75}} {
		for seed := uint64(1); seed <= 4; seed++ {
			in, err := scn.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range []core.Slot{0, 1, 9, 20} { // 9 is mid-stage for m=20 (ends 1,2,3,5,10,20)
				orig := driveTo(t, in, 55, eng, cut)
				snap, err := orig.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(snap)
				if err != nil {
					t.Fatalf("%s seed %d cut %d: %v", eng.Name(), seed, cut, err)
				}
				if restored.Now() != cut {
					t.Fatalf("restored clock %d, want %d", restored.Now(), cut)
				}
				if s, _ := restored.Stage(); func() int { v, _ := orig.Stage(); return v }() != s {
					t.Fatalf("restored stage %d disagrees", s)
				}
				if restored.Reserved() != orig.Reserved() {
					t.Fatalf("restored reserve %g, want %g", restored.Reserved(), orig.Reserved())
				}
				snap2, err := restored.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, snap2) {
					t.Fatalf("%s seed %d cut %d: re-snapshot differs\n%s\n%s", eng.Name(), seed, cut, snap, snap2)
				}
				a, b := finish(t, orig, in), finish(t, restored, in)
				if a.Welfare != b.Welfare || a.TotalPayment() != b.TotalPayment() {
					t.Fatalf("%s seed %d cut %d: futures diverge: welfare %g vs %g, paid %g vs %g",
						eng.Name(), seed, cut, a.Welfare, b.Welfare, a.TotalPayment(), b.TotalPayment())
				}
				for i := range a.Payments {
					if a.Payments[i] != b.Payments[i] {
						t.Fatalf("%s seed %d cut %d: phone %d paid %g vs %g",
							eng.Name(), seed, cut, i, a.Payments[i], b.Payments[i])
					}
				}
			}
		}
	}
}

// TestRestoreSettlesDepartedWinners: Restore settles every winner that
// departed before the checkpoint at the amount its live twin issued, so
// the restored Outcome copies those amounts instead of pricing them by
// replay again whenever the clock moves.
func TestRestoreSettlesDepartedWinners(t *testing.T) {
	in, err := workload.DefaultScenario().Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 30
	for _, eng := range []Engine{StageSampling{}, Frugal{Coverage: 0.75}} {
		live := driveTo(t, in, 2000, eng, cut)
		snap, err := live.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		r.Outcome()
		departed := 0
		for i, b := range live.ledger.Bids() {
			p := core.PhoneID(i)
			if live.ledger.WonAt(p) == 0 || b.Departure > cut {
				continue
			}
			departed++
			if !live.settled[p] || !r.settled[p] {
				t.Fatalf("%s: winner %d departed at %d: settled %v live, %v restored", eng.Name(), p, b.Departure, live.settled[p], r.settled[p])
			}
			if math.Float64bits(r.critVal[p]) != math.Float64bits(live.critVal[p]) {
				t.Fatalf("%s: winner %d settled at %v restored, %v live", eng.Name(), p, r.critVal[p], live.critVal[p])
			}
		}
		if departed == 0 {
			t.Fatalf("%s: no winner departed before slot %d", eng.Name(), cut)
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	in, err := workload.DefaultScenario().Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	a := driveTo(t, in, 100, nil, 10)
	good, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(find, repl string) []byte {
		return bytes.Replace(good, []byte(find), []byte(repl), 1)
	}
	cases := map[string][]byte{
		"not json":          []byte("{"),
		"bad version":       mutate(`"version":1`, `"version":9`),
		"no budget section": mutate(`"budget":{`, `"nobudget":{`),
		"bad engine":        mutate(`"engine":"stage"`, `"engine":"simplex"`),
		"bad budget value":  mutate(`"budget":{"budget":100`, `"budget":{"budget":-4`),
	}
	for name, data := range cases {
		if _, err := Restore(data); err == nil {
			t.Errorf("%s: restore accepted corrupt snapshot", name)
		}
	}
}

// FuzzBudgetSnapshot drives a fuzzer-shaped round partway, round-trips
// it through Snapshot/Restore, and requires a bit-identical
// re-snapshot plus an identical remaining round.
func FuzzBudgetSnapshot(f *testing.F) {
	f.Add(uint64(1), uint64(7), 40.0, true, uint8(10))
	f.Add(uint64(2), uint64(3), 5.0, false, uint8(1))
	f.Add(uint64(3), uint64(9), 500.0, true, uint8(19))
	f.Fuzz(func(t *testing.T, seed, shape uint64, budget float64, stage bool, cutRaw uint8) {
		if err := ValidateBudget(budget); err != nil {
			t.Skip()
		}
		scn := workload.DefaultScenario()
		scn.Slots = 20
		scn.PhoneRate = 1 + float64(shape%5)
		scn.TaskRate = 1 + float64(shape%3)
		in, err := scn.Generate(seed)
		if err != nil {
			t.Skip()
		}
		var eng Engine = StageSampling{}
		if !stage {
			eng = Frugal{}
		}
		cut := core.Slot(cutRaw) % (scn.Slots + 1)
		orig := driveTo(t, in, budget, eng, cut)
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(snap)
		if err != nil {
			t.Fatalf("restore of own snapshot: %v", err)
		}
		snap2, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("re-snapshot differs:\n%s\n%s", snap, snap2)
		}
		a, b := finish(t, orig, in), finish(t, restored, in)
		if a.TotalPayment() != b.TotalPayment() || a.TotalPayment() > budget+1e-9 {
			t.Fatalf("post-restore payments %g vs %g (budget %g)", a.TotalPayment(), b.TotalPayment(), budget)
		}
	})
}
