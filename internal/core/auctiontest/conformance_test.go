// Package auctiontest is the conformance suite every core.Auction
// implementation runs: the online mechanism's core.OnlineAuction, with
// and without its completion lifecycle, and the budgeted auction
// (internal/budget) with each engine. It holds each kind to one
// stepping contract and one checkpoint contract, restores the golden
// checkpoints under testdata/, and fuzzes restore with raw bytes.
package auctiontest

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// kind is one core.Auction configuration under test. script, when
// non-nil, runs after every slot of every round the suite plays, live
// or restored, so both sides see the same lifecycle events.
type kind struct {
	name    string
	fresh   func(in *core.Instance) (core.Auction, error)
	restore func([]byte) (core.Auction, error)
	script  func(a core.Auction, res *core.SlotResult) error
}

var kinds = []kind{
	{
		name: "online",
		fresh: func(in *core.Instance) (core.Auction, error) {
			return core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		},
		restore: restoreOnline,
	},
	{
		name: "online-completions",
		fresh: func(in *core.Instance) (core.Auction, error) {
			oa, err := core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
			if err != nil {
				return nil, err
			}
			oa.TrackCompletions(true)
			return oa, nil
		},
		restore: restoreOnline,
		script:  lifecycle,
	},
	{name: "budget-stage", fresh: budgeted(budget.StageSampling{}), restore: restoreBudget},
	{name: "budget-frugal", fresh: budgeted(budget.Frugal{Coverage: 0.75}), restore: restoreBudget},
}

func restoreOnline(data []byte) (core.Auction, error) {
	a, err := core.RestoreOnlineAuction(data)
	if err != nil {
		return nil, err
	}
	return a, nil
}

func restoreBudget(data []byte) (core.Auction, error) {
	a, err := budget.Restore(data)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// budgeted returns a fresh-auction builder for a budget of 400 under eng.
func budgeted(eng budget.Engine) func(in *core.Instance) (core.Auction, error) {
	return func(in *core.Instance) (core.Auction, error) {
		return budget.New(in.Slots, in.Value, in.AllocateAtLoss, 400, eng)
	}
}

// lifecycle is the online-completions script: every third slot it
// defaults the lowest-ID assigned winner and completes the highest-ID
// one, so defaults land before and after payments.
func lifecycle(a core.Auction, res *core.SlotResult) error {
	if res.Slot%3 != 0 {
		return nil
	}
	oa := a.(*core.OnlineAuction)
	var assigned []core.PhoneID
	for id := core.PhoneID(0); ; id++ {
		if _, ok := a.Bid(id); !ok {
			break
		}
		if oa.Completion(id).Status == core.StatusAssigned {
			assigned = append(assigned, id)
		}
	}
	if len(assigned) < 2 {
		return nil
	}
	if _, err := oa.Default(assigned[0]); err != nil {
		return err
	}
	return oa.Complete(assigned[len(assigned)-1])
}

// cut is the slot the golden checkpoints and the malformed table are
// taken at: mid-stage for a 20-slot budgeted round (stages end at 1, 2,
// 3, 5, 10, 20), after three scripted defaults.
const cut = 9

// round is the suite's 20-slot round: DefaultScenario's seed 5 with 3
// phones and 2 tasks per slot.
func round(t testing.TB) *core.Instance {
	t.Helper()
	scn := workload.DefaultScenario()
	scn.Slots, scn.PhoneRate, scn.TaskRate = 20, 3, 2
	in, err := scn.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// play steps a through in up to slot upTo, running k's script after
// every slot, and returns each slot's result.
func (k kind) play(t testing.TB, a core.Auction, in *core.Instance, upTo core.Slot) []*core.SlotResult {
	t.Helper()
	var results []*core.SlotResult
	err := core.StepThrough(a, in, upTo, func(res *core.SlotResult) error {
		results = append(results, res)
		if k.script == nil {
			return nil
		}
		return k.script(a, res)
	})
	if err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	return results
}

// playFresh starts a fresh auction of kind k and plays it to upTo.
func (k kind) playFresh(t testing.TB, in *core.Instance, upTo core.Slot) (core.Auction, []*core.SlotResult) {
	t.Helper()
	a, err := k.fresh(in)
	if err != nil {
		t.Fatal(err)
	}
	return a, k.play(t, a, in, upTo)
}

func snapshot(t testing.TB, a core.Auction) []byte {
	t.Helper()
	data, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBidAndInstance: Bid(id) reads exactly what Instance() copies and
// refuses the next unadmitted ID and -1, and Step fails once the round
// is done.
func TestBidAndInstance(t *testing.T) {
	in := round(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			a, results := k.playFresh(t, in, 0)
			results = append(results, k.play(t, a, in, in.Slots)...)
			if len(results) != int(in.Slots) {
				t.Fatalf("played %d slots, want %d", len(results), in.Slots)
			}
			inst := a.Instance()
			for id := range inst.Bids {
				if b, ok := a.Bid(core.PhoneID(id)); !ok || b != inst.Bids[id] {
					t.Fatalf("Bid(%d) = %+v, %v; Instance has %+v", id, b, ok, inst.Bids[id])
				}
			}
			for _, id := range []core.PhoneID{core.PhoneID(len(inst.Bids)), -1} {
				if _, ok := a.Bid(id); ok {
					t.Fatalf("Bid(%d) ok with %d phones admitted", id, len(inst.Bids))
				}
			}
			if !a.Done() || a.Now() != in.Slots {
				t.Fatalf("after the last slot: Done %v, Now %d", a.Done(), a.Now())
			}
			if _, err := a.Step(nil, 0); err == nil {
				t.Fatal("Step after Done succeeded")
			}
			if a.Outcome().Allocation.NumServed() == 0 {
				t.Fatal("round served no task; the suite compared empty outcomes")
			}
		})
	}
}

// TestStepRejects: every kind refuses the same malformed slots — a
// negative task count, an inverted window, a departure past m, one bad
// bid in a batch of good ones, and any Step once the round is over —
// and a refused Step changes nothing: Now, Instance and Outcome read as
// before it, and the round then finishes exactly like one never
// refused.
func TestStepRejects(t *testing.T) {
	in := round(t)
	good := core.StreamBid{Departure: in.Slots, Cost: 1}
	rows := []struct {
		name     string
		arriving []core.StreamBid
		tasks    int
		inverted bool // must match core.ErrWindowInverted
	}{
		{"negative task count", nil, -1, false},
		{"inverted window", []core.StreamBid{{Departure: cut, Cost: 1}}, 1, true},
		{"departure past m", []core.StreamBid{{Departure: in.Slots + 1, Cost: 1}}, 1, false},
		{"one bad bid among good ones", []core.StreamBid{good, {Departure: cut + 1, Cost: math.NaN()}, good}, 2, false},
	}
	type state struct {
		now  core.Slot
		inst *core.Instance
		out  *core.Outcome
	}
	of := func(a core.Auction) state { return state{a.Now(), a.Instance(), a.Outcome()} }
	refuse := func(t *testing.T, a core.Auction, tag string, arriving []core.StreamBid, tasks int, inverted bool) {
		t.Helper()
		before := of(a)
		res, err := a.Step(arriving, tasks)
		if err == nil {
			t.Fatalf("%s: Step accepted (%+v)", tag, res)
		}
		if inverted && !errors.Is(err, core.ErrWindowInverted) {
			t.Fatalf("%s: got %v, want ErrWindowInverted", tag, err)
		}
		if after := of(a); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: refused Step changed the auction:\n got %+v\nwant %+v", tag, after, before)
		}
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			whole, _ := k.playFresh(t, in, in.Slots)
			a, _ := k.playFresh(t, in, cut)
			for _, row := range rows {
				refuse(t, a, row.name, row.arriving, row.tasks, row.inverted)
			}
			k.play(t, a, in, in.Slots)
			if got, want := a.Outcome(), whole.Outcome(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round with refused Steps finished differently:\n got %+v\nwant %+v", got, want)
			}
			refuse(t, a, "after the round", nil, 0, false)
			refuse(t, a, "bids after the round", []core.StreamBid{good}, 1, false)
		})
	}
}

// TestCheckpointEverySlot checkpoints at every slot boundary from 0 to
// m. Each checkpoint restores with equal Now and Outcome, re-snapshots
// byte-identically, and finishes the round exactly like an
// uninterrupted run: the same slot results after the cut and the same
// final Outcome.
func TestCheckpointEverySlot(t *testing.T) {
	in := round(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			whole, wholeResults := k.playFresh(t, in, in.Slots)
			want := whole.Outcome()
			for c := core.Slot(0); c <= in.Slots; c++ {
				a, _ := k.playFresh(t, in, c)
				data := snapshot(t, a)
				r, err := k.restore(data)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", c, err)
				}
				if r.Now() != c {
					t.Fatalf("cut %d: restored Now %d", c, r.Now())
				}
				if got, live := r.Outcome(), a.Outcome(); !reflect.DeepEqual(got, live) {
					t.Fatalf("cut %d: restored Outcome differs:\n got %+v\nwant %+v", c, got, live)
				}
				if again := snapshot(t, r); !bytes.Equal(again, data) {
					t.Fatalf("cut %d: re-snapshot differs:\n%s\n%s", c, data, again)
				}
				rest := k.play(t, r, in, in.Slots)
				for i, res := range wholeResults[c:] {
					if !reflect.DeepEqual(rest[i], res) {
						t.Fatalf("cut %d: slot %d result %+v, uninterrupted run %+v", c, res.Slot, rest[i], res)
					}
				}
				if got := r.Outcome(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: finished Outcome differs:\n got %+v\nwant %+v", c, got, want)
				}
			}
		})
	}
}

// TestStanding: at every slot boundary, Standing reports each phone's
// task and winning slot as Outcome does, and a payment as settled
// exactly when the winner has departed, with the amount Outcome pays.
// A restored auction reports the same standings as the live one, and
// IDs outside the round hold nothing.
func TestStanding(t *testing.T) {
	in := round(t)
	type standing struct {
		task    core.TaskID
		won     core.Slot
		paid    float64
		settled bool
	}
	of := func(a core.Auction, id core.PhoneID) standing {
		var s standing
		s.task, s.won, s.paid, s.settled = a.Standing(id)
		return s
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			a, err := k.fresh(in)
			if err != nil {
				t.Fatal(err)
			}
			for c := core.Slot(1); c <= in.Slots; c++ {
				k.play(t, a, in, c)
				r, err := k.restore(snapshot(t, a))
				if err != nil {
					t.Fatalf("slot %d: restore: %v", c, err)
				}
				n := core.PhoneID(len(a.Instance().Bids))
				restored := make([]standing, n)
				for id := range restored {
					restored[id] = of(r, core.PhoneID(id))
				}
				out := a.Outcome()
				for id := core.PhoneID(0); id < n; id++ {
					got := of(a, id)
					if restored[id] != got {
						t.Fatalf("slot %d: phone %d restored standing %+v, live %+v", c, id, restored[id], got)
					}
					if got.task != out.Allocation.ByPhone[id] || got.won != out.Allocation.WonAt[id] {
						t.Fatalf("slot %d: phone %d standing %+v, outcome task %d at %d", c, id, got, out.Allocation.ByPhone[id], out.Allocation.WonAt[id])
					}
					if got.task == core.NoTask {
						continue
					}
					b, _ := a.Bid(id)
					if got.settled != (b.Departure <= c) {
						t.Fatalf("slot %d: winner %d departing at %d has settled %v", c, id, b.Departure, got.settled)
					}
					if got.settled && math.Float64bits(got.paid) != math.Float64bits(out.Payments[id]) {
						t.Fatalf("slot %d: winner %d settled at %v, outcome pays %v", c, id, got.paid, out.Payments[id])
					}
				}
				for _, id := range []core.PhoneID{n, -1} {
					if s := of(a, id); s != (standing{task: core.NoTask}) {
						t.Fatalf("slot %d: phone %d outside the round stands %+v", c, id, s)
					}
				}
			}
		})
	}
}

// TestRestoreRejectsMalformed holds restore to one error per validation
// branch: each row corrupts the kind's checkpoint at the cut and names
// the message its branch must report.
func TestRestoreRejectsMalformed(t *testing.T) {
	in := round(t)
	type doc = map[string]any
	// at returns the i-th element of a JSON array field; -1 is the last.
	at := func(m doc, field string, i int) any {
		arr := m[field].([]any)
		if i < 0 {
			i += len(arr)
		}
		return arr[i]
	}
	bid := func(m doc, i int) doc { return at(m, "bids", i).(doc) }
	// loser returns the first phone that has not won.
	loser := func(m doc) int {
		for i, w := range m["wonAt"].([]any) {
			if w.(float64) == 0 {
				return i
			}
		}
		panic("no loser")
	}
	// idle returns the first phone whose completion status is none: it
	// never held a task.
	idle := func(m doc) int {
		for i, st := range m["completions"].(doc)["statuses"].([]any) {
			if st.(float64) == 0 {
				return i
			}
		}
		panic("no idle phone")
	}
	// served returns the first served task.
	served := func(m doc) int {
		for k, p := range m["byTask"].([]any) {
			if p.(float64) >= 0 {
				return k
			}
		}
		panic("no served task")
	}
	rows := []struct {
		name   string
		only   string // kind-name prefix the row applies to ("" for all)
		want   string
		mutate func(m doc)
	}{
		{"version", "", "unsupported version", func(m doc) { m["version"] = 2 }},
		{"negative clock", "", "clock -1 outside round", func(m doc) { m["now"] = -1 }},
		{"clock past round", "", "clock 21 outside round", func(m doc) { m["now"] = 21 }},
		{"empty round", "", "round length 0", func(m doc) { m["slots"] = 0 }},
		{"negative value", "", "negative task value", func(m doc) { m["value"] = -1 }},
		{"state sizes", "", "winning slots", func(m doc) { m["wonAt"] = []any{} }},
		{"sparse phone ids", "", "has phone id", func(m doc) { bid(m, 1)["Phone"] = 5 }},
		{"invalid bid", "", "not a non-negative finite number", func(m doc) { bid(m, 0)["Cost"] = -1 }},
		{"bid after clock", "", "after clock", func(m doc) {
			b := bid(m, -1)
			b["Arrival"], b["Departure"] = cut+1, cut+1
		}},
		// Phone 6 (window [2,4]) is reserve-priced and never enters the
		// pool, so moving it after phone 7 (arriving at 2) changes no
		// decision: only the order check catches it.
		{"bids out of arrival order", "", "before bid", func(m doc) { bid(m, 6)["Arrival"] = 3 }},
		{"task after clock", "", "arrival 10 outside", func(m doc) {
			m["taskArrivals"].([]any)[len(m["taskArrivals"].([]any))-1] = cut + 1
		}},
		{"tasks out of arrival order", "", "before task", func(m doc) {
			last := len(m["taskArrivals"].([]any)) - 1
			m["taskArrivals"].([]any)[last] = 1
			m["byTask"].([]any)[last] = -1
		}},
		{"unknown winner", "", "unknown phone", func(m doc) { m["byTask"].([]any)[served(m)] = 999 }},
		{"winner slot", "", "disagrees with winner", func(m doc) { m["byTask"].([]any)[served(m)] = loser(m) }},
		{"assignment contradicts replay", "", "assignment", func(m doc) { m["byTask"].([]any)[served(m)] = -1 }},
		{"winning slot contradicts replay", "", "winning slot", func(m doc) { m["wonAt"].([]any)[loser(m)] = 1 }},
		{"statuses size", "online-completions", "completion statuses", func(m doc) {
			m["completions"].(doc)["statuses"] = []any{}
		}},
		{"paid size", "online-completions", "paid amounts", func(m doc) {
			m["completions"].(doc)["paid"] = []any{1}
		}},
		{"default log order", "online-completions", "out of clock order", func(m doc) {
			at(m["completions"].(doc), "log", 1).(doc)["slot"] = 2
		}},
		{"default of a loser", "online-completions", "logged default", func(m doc) {
			at(m["completions"].(doc), "log", 0).(doc)["phone"] = idle(m)
		}},
		{"status contradicts replay", "online-completions", "disagrees with replay", func(m doc) {
			m["completions"].(doc)["statuses"].([]any)[idle(m)] = 1
		}},
		{"completions on a budgeted auction", "budget", "completions section", func(m doc) {
			m["completions"] = doc{}
		}},
		{"budget section", "budget", "cannot unmarshal", func(m doc) { m["budget"] = "x" }},
		{"budget engine", "budget", "unknown engine", func(m doc) { m["budget"].(doc)["engine"] = "simplex" }},
		{"budget value", "budget", "budget must be", func(m doc) { m["budget"].(doc)["budget"] = -4 }},
	}
	for _, k := range kinds {
		live, _ := k.playFresh(t, in, cut)
		good := snapshot(t, live)
		if _, err := k.restore([]byte("{nope")); err == nil || !strings.Contains(err.Error(), "invalid character") {
			t.Errorf("%s: not JSON: got %v", k.name, err)
		}
		for _, row := range rows {
			if !strings.HasPrefix(k.name, row.only) {
				continue
			}
			var m doc
			if err := json.Unmarshal(good, &m); err != nil {
				t.Fatal(err)
			}
			row.mutate(m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = k.restore(data)
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%s: %s: got %v, want an error containing %q", k.name, row.name, err, row.want)
			}
		}
	}
}

// TestRestoreAsOtherKind: a checkpoint restored as the other auction
// kind is refused with core.ErrCheckpointKind.
func TestRestoreAsOtherKind(t *testing.T) {
	in := round(t)
	for _, k := range kinds {
		live, _ := k.playFresh(t, in, cut)
		other := restoreBudget
		if strings.HasPrefix(k.name, "budget") {
			other = restoreOnline
		}
		if _, err := other(snapshot(t, live)); !errors.Is(err, core.ErrCheckpointKind) {
			t.Errorf("%s restored as the other kind: got %v, want ErrCheckpointKind", k.name, err)
		}
	}
}
