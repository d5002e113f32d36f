package budget

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// goldenPayments is what TestGoldenPayments must reproduce byte for
// byte: one line per Table I round (seeds 1–100 × both engines × a
// binding and a loose budget), each a digest of the round's allocation
// and payment bits. It was recorded before the pricing fast paths that
// reuse the observed round's state, so any change to who wins or what
// a winner is paid, down to the last bit, shows up here. After an
// intended change to the mechanism, re-record it by writing
// goldenRounds' output over the file.
var goldenPayments = filepath.Join("testdata", "payments.golden")

// goldenRounds plays every golden round and returns one line per round:
// engine, budget, seed, the winner count, the total paid, and a SHA-256
// over each slot's payment notices (phone, amount bits) in the order
// Step returned them, then the final outcome's task winners, winning
// slots and payment bits.
func goldenRounds(t *testing.T) []byte {
	t.Helper()
	scn := workload.DefaultScenario()
	var b bytes.Buffer
	for _, eng := range []Engine{StageSampling{}, Frugal{}} {
		for _, budget := range []float64{200, 2000} {
			for seed := uint64(1); seed <= 100; seed++ {
				in, err := scn.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				a, err := New(in.Slots, in.Value, in.AllocateAtLoss, budget, eng)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				put := func(v uint64) {
					var w [8]byte
					binary.LittleEndian.PutUint64(w[:], v)
					h.Write(w[:])
				}
				err = core.StepThrough(a, in, in.Slots, func(res *core.SlotResult) error {
					for _, p := range res.Payments {
						put(uint64(p.Phone))
						put(math.Float64bits(p.Amount))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				out := a.Outcome()
				for _, ph := range out.Allocation.ByTask {
					put(uint64(ph))
				}
				for i := range out.Payments {
					put(uint64(out.Allocation.WonAt[i]))
					put(math.Float64bits(out.Payments[i]))
				}
				fmt.Fprintf(&b, "%s B=%g seed=%d wins=%d paid=%.17g sha256=%x\n",
					eng.Name(), budget, seed, len(out.Allocation.Winners()), out.TotalPayment(), h.Sum(nil))
			}
		}
	}
	return b.Bytes()
}

// TestGoldenPayments pins the budgeted family's outcomes bit for bit:
// every golden round must allocate and pay exactly as recorded.
func TestGoldenPayments(t *testing.T) {
	want, err := os.ReadFile(goldenPayments)
	if err != nil {
		t.Fatal(err)
	}
	have := goldenRounds(t)
	if bytes.Equal(have, want) {
		return
	}
	wl, hl := bytes.Split(want, []byte("\n")), bytes.Split(have, []byte("\n"))
	for i := 0; i < len(wl) || i < len(hl); i++ {
		var w, h []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(hl) {
			h = hl[i]
		}
		if !bytes.Equal(w, h) {
			t.Fatalf("%s line %d differs:\nwant %s\ngot  %s", goldenPayments, i+1, w, h)
		}
	}
}
