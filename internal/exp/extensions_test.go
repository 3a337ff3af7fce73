package exp

import "testing"

// The durability drills are structural: at any scale, every indicator
// metric must land exactly on its expected bit.
func TestExtensionDrills(t *testing.T) {
	rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 1}

	eadr, err := ExtEADR(rc)
	if err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]float64{
		"data_loss/adr":     1,
		"at_checkpoint/adr": 1,
		"data_loss/eadr":    0,
	} {
		if got := eadr.Values[metric]; got != want {
			t.Errorf("ext-eadr %s = %v, want %v", metric, got, want)
		}
	}
	if _, ok := eadr.Values["at_checkpoint/eadr"]; !ok {
		t.Error("ext-eadr missing at_checkpoint/eadr")
	}

	rec, err := ExtCtrRec(rc)
	if err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]float64{
		"detected/tear":      1,
		"located/ctr_region": 1,
		"detected/clean":     0,
	} {
		if got := rec.Values[metric]; got != want {
			t.Errorf("ext-ctrrec %s = %v, want %v", metric, got, want)
		}
	}
}

// Extensions resolve through ByID like every other experiment, so
// `deucebench -experiment ext-eadr` and the fidelity planner find them.
func TestExtensionsByID(t *testing.T) {
	for _, e := range Extensions() {
		got, err := ByID(e.ID)
		if err != nil {
			t.Fatalf("ByID(%s): %v", e.ID, err)
		}
		if got.ID != e.ID {
			t.Errorf("ByID(%s) returned %s", e.ID, got.ID)
		}
		// Not built from cells: the planner gives extensions a bare
		// table node.
		if e.cells != nil {
			t.Errorf("%s declares cells, want none", e.ID)
		}
	}
}
