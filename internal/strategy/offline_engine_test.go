package strategy

import (
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// TestOfflineEnginesTruthfulUnderAudit runs the offline mechanism —
// the interval solve that ships, not just the Hungarian oracle —
// through the exhaustive misreport sweep (cost scaling, arrival delay,
// departure advance over the full factor grid) on the paper's Fig. 4
// instance. Truthfulness and individual rationality must hold for
// both.
func TestOfflineEnginesTruthfulUnderAudit(t *testing.T) {
	in := paperInstance()
	for _, mech := range []core.Mechanism{
		&core.OfflineMechanism{},
		core.OfflineOracle{},
	} {
		results, err := Audit(mech, in, AuditOptions{})
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		if phone, gain := MaxGain(results); gain > 1e-9 {
			t.Fatalf("%s: phone %d gains %g by misreporting (bid %+v)",
				mech.Name(), phone, gain, results[phone].BestBid)
		}
		for _, r := range results {
			// IR: truthful participation never loses money.
			if r.TruthfulUtility < -1e-9 {
				t.Fatalf("%s: phone %d has negative truthful utility %g",
					mech.Name(), r.Phone, r.TruthfulUtility)
			}
		}
	}
}

// TestOfflineIntervalEngineCampaign: a multi-seed audit campaign over
// generated workloads pins the fast engine's truthfulness beyond the
// single paper instance.
func TestOfflineIntervalEngineCampaign(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 7
	scn.PhoneRate = 2
	scn.TaskRate = 1.5
	gen := func(seed uint64) (*core.Instance, error) { return scn.Generate(seed) }

	res, err := AuditCampaign(&core.OfflineMechanism{}, gen, []uint64{1, 2, 3, 4, 5}, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 5 || res.PhonesAudited == 0 || res.ReportsSearched == 0 {
		t.Fatalf("campaign shape: %+v", res)
	}
	if !res.Truthful() {
		t.Fatalf("interval offline engine flagged by audit: %+v", res)
	}
}
