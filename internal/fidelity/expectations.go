package fidelity

// Expectations returns the full paper-fidelity contract: every headline
// value in EXPERIMENTS.md's summary table plus the shape assertions the
// reproduction argument rests on. Flip fractions are fractions (0.427 =
// 42.7 %); lifetimes and speedups are ratios to the encrypted baseline.
//
// Tolerance discipline: values that are structural (avalanche's exact
// 50 %, FNW's 42.7 % on random ciphertext, Table 3's overhead bits, the
// 4.00-slot wall) get tight tolerances; calibrated workload statistics
// get ±3 pp absolute or ±15-25 % relative, wide enough for the documented
// paper-vs-simulator deviations and reduced-size CI runs, tight enough
// that a real regression (DEUCE drifting toward 30 %, a lifetime ratio
// collapsing) trips the gate.
func Expectations() []Expectation {
	return []Expectation{
		// Figure 1b / 5 — the cost of encryption (paper §1, §2).
		{Experiment: "fig5", Kind: Absolute, Metric: "flips/NoEncr_DCW", Paper: 0.122, Tolerance: 0.03,
			Note: "Fig. 5: unencrypted DCW baseline ~12.2 % of bits per write"},
		{Experiment: "fig5", Kind: Absolute, Metric: "flips/NoEncr_FNW", Paper: 0.105, Tolerance: 0.03,
			Note: "Fig. 5: FNW trims the unencrypted baseline to ~10.5 %"},
		{Experiment: "fig5", Kind: Absolute, Metric: "flips/Encr_DCW", Paper: 0.50, Tolerance: 0.01,
			Note: "Fig. 5: avalanche makes encrypted DCW exactly 50 %"},
		{Experiment: "fig5", Kind: Absolute, Metric: "flips/Encr_FNW", Paper: 0.427, Tolerance: 0.01,
			Note: "Fig. 5 / Table 3: FNW on uniformly random ciphertext lands at 42.7 %"},
		{Experiment: "fig5", Kind: Ordering, Metrics: []string{"flips/Encr_DCW", "flips/Encr_FNW", "flips/NoEncr_DCW", "flips/NoEncr_FNW"}, MinGap: 0.005,
			Note: "Fig. 5 shape: encryption dominates cost; FNW helps within each"},

		// Figure 8 — DEUCE word-size sensitivity (paper §4.4).
		{Experiment: "fig8", Kind: Absolute, Metric: "flips/DEUCE_1B", Paper: 0.214, Tolerance: 0.03, Note: "Fig. 8: 1-byte words"},
		{Experiment: "fig8", Kind: Absolute, Metric: "flips/DEUCE_2B", Paper: 0.237, Tolerance: 0.03, Note: "Fig. 8: 2-byte words (default)"},
		{Experiment: "fig8", Kind: Absolute, Metric: "flips/DEUCE_4B", Paper: 0.268, Tolerance: 0.03, Note: "Fig. 8: 4-byte words"},
		{Experiment: "fig8", Kind: Absolute, Metric: "flips/DEUCE_8B", Paper: 0.322, Tolerance: 0.03, Note: "Fig. 8: 8-byte words"},
		{Experiment: "fig8", Kind: Monotone, Metrics: []string{"flips/DEUCE_1B", "flips/DEUCE_2B", "flips/DEUCE_4B", "flips/DEUCE_8B"}, MinGap: 0.002,
			Note: "Fig. 8 shape: coarser tracking words are monotonically worse"},
		{Experiment: "fig8", Kind: Knee, Metrics: []string{"flips/DEUCE_1B", "flips/DEUCE_2B", "flips/DEUCE_4B"}, MinGap: 0.005,
			Note: "Fig. 8 shape: cost accelerates beyond the 2-byte knee, so 2 B is the overhead/effectiveness sweet spot"},

		// Figure 9 — DEUCE epoch sensitivity (paper §4.5): flat to <1 %.
		{Experiment: "fig9", Kind: Absolute, Metric: "flips/Epoch_8", Paper: 0.248, Tolerance: 0.03, Note: "Fig. 9: epoch 8"},
		{Experiment: "fig9", Kind: Absolute, Metric: "flips/Epoch_16", Paper: 0.240, Tolerance: 0.03, Note: "Fig. 9: epoch 16"},
		{Experiment: "fig9", Kind: Absolute, Metric: "flips/Epoch_32", Paper: 0.237, Tolerance: 0.03, Note: "Fig. 9: epoch 32 (default)"},

		// Figure 10 / Table 3 — the headline scheme comparison (§6.2).
		{Experiment: "fig10", Kind: Absolute, Metric: "flips/Encr_FNW", Paper: 0.427, Tolerance: 0.01,
			Note: "Fig. 10: encrypted FNW baseline"},
		{Experiment: "fig10", Kind: Absolute, Metric: "flips/DEUCE", Paper: 0.237, Tolerance: 0.03,
			Note: "Fig. 10: DEUCE halves encrypted-memory flips"},
		{Experiment: "fig10", Kind: Absolute, Metric: "flips/DynDEUCE", Paper: 0.220, Tolerance: 0.03,
			Note: "Fig. 10: DynDEUCE clamps the pathological workloads to FNW"},
		{Experiment: "fig10", Kind: Absolute, Metric: "flips/DEUCE+FNW", Paper: 0.203, Tolerance: 0.03,
			Note: "Fig. 10: DEUCE+FNW composes the two reductions"},
		{Experiment: "fig10", Kind: Absolute, Metric: "flips/NoEncr_FNW", Paper: 0.105, Tolerance: 0.03,
			Note: "Fig. 10: unencrypted floor"},
		{Experiment: "fig10", Kind: Ordering, Metrics: []string{"flips/Encr_FNW", "flips/DEUCE", "flips/DynDEUCE", "flips/DEUCE+FNW", "flips/NoEncr_FNW"}, MinGap: 0.005,
			Note: "Fig. 10 shape: Encr-FNW > DEUCE > DynDEUCE > DEUCE+FNW > NoEncr-FNW"},

		// Table 3 — storage overhead is structural, zero tolerance.
		{Experiment: "table3", Kind: Absolute, Metric: "overhead_bits/FNW", Paper: 32, Tolerance: 0,
			Note: "Table 3: FNW stores one flip bit per 16-bit word"},
		{Experiment: "table3", Kind: Absolute, Metric: "overhead_bits/DEUCE", Paper: 32, Tolerance: 0,
			Note: "Table 3: DEUCE stores one modified bit per 2-byte word"},
		{Experiment: "table3", Kind: Absolute, Metric: "overhead_bits/DynDEUCE", Paper: 33, Tolerance: 0,
			Note: "Table 3: DynDEUCE adds one mode bit"},
		{Experiment: "table3", Kind: Absolute, Metric: "overhead_bits/DEUCE+FNW", Paper: 64, Tolerance: 0,
			Note: "Table 3: DEUCE+FNW doubles the metadata"},

		// Figure 12 — intra-line write skew (§5.1 motivation for HWL).
		{Experiment: "fig12", Kind: Ratio, Metric: "skew_max/mcf", Paper: 6, Tolerance: 0.35,
			Note: "Fig. 12: mcf hottest bit position ~6x the average"},
		{Experiment: "fig12", Kind: Ratio, Metric: "skew_max/libq", Paper: 27, Tolerance: 0.35,
			Note: "Fig. 12: libquantum counter updates concentrate ~27x"},
		{Experiment: "fig12", Kind: Ordering, Metrics: []string{"skew_max/libq", "skew_max/mcf"}, MinGap: 5,
			Note: "Fig. 12 shape: libq's skew dwarfs mcf's"},

		// Figure 14 — lifetime normalized to encrypted memory (§6.3).
		{Experiment: "fig14", Kind: Ratio, Metric: "lifetime/FNW", Paper: 1.14, Tolerance: 0.2,
			Note: "Fig. 14: FNW's uniform flip savings buy ~1.14x lifetime"},
		{Experiment: "fig14", Kind: Ratio, Metric: "lifetime/DEUCE", Paper: 1.11, Tolerance: 0.2,
			Note: "Fig. 14: DEUCE alone keeps hitting hot words — only ~1.11x"},
		{Experiment: "fig14", Kind: Ratio, Metric: "lifetime/DEUCE-HWL", Paper: 2.0, Tolerance: 0.25,
			Note: "Fig. 14: horizontal wear leveling restores lifetime ∝ flip reduction"},
		{Experiment: "fig14", Kind: Ordering, Metrics: []string{"lifetime/DEUCE-HWL", "lifetime/FNW", "lifetime/DEUCE"}, MinGap: 0.05,
			Note: "Fig. 14 shape: HWL dominates; DEUCE alone trails even FNW"},

		// Figure 15 — write slots per write request (§6.4).
		{Experiment: "fig15", Kind: Absolute, Metric: "slots/Encr_DCW", Paper: 4.0, Tolerance: 0.01,
			Note: "Fig. 15: encrypted memory always programs all 4 slots"},
		{Experiment: "fig15", Kind: Absolute, Metric: "slots/Encr_FNW", Paper: 3.97, Tolerance: 0.05,
			Note: "Fig. 15: FNW cannot free a single slot (~55 flips per 128-bit slot)"},
		{Experiment: "fig15", Kind: Absolute, Metric: "slots/DEUCE", Paper: 2.64, Tolerance: 0.5,
			Note: "Fig. 15: DEUCE frees over a quarter of the slot traffic"},
		{Experiment: "fig15", Kind: Absolute, Metric: "slots/NoEncr_DCW", Paper: 1.92, Tolerance: 0.5,
			Note: "Fig. 15: unencrypted floor ~2 slots"},
		{Experiment: "fig15", Kind: Ordering, Metrics: []string{"slots/Encr_FNW", "slots/DEUCE", "slots/NoEncr_DCW"}, MinGap: 0.3,
			Note: "Fig. 15 shape: DEUCE bridges most of the encrypted-to-plain slot gap"},

		// Figure 16 — speedup over encrypted memory (§6.5).
		{Experiment: "fig16", Kind: Ratio, Metric: "speedup/Encr_FNW", Paper: 1.0, Tolerance: 0.1,
			Note: "Fig. 16: FNW alone buys no performance (slot wall)"},
		{Experiment: "fig16", Kind: Ratio, Metric: "speedup/DEUCE", Paper: 1.27, Tolerance: 0.12,
			Note: "Fig. 16: DEUCE's freed slots become 1.27x speedup"},
		{Experiment: "fig16", Kind: Ratio, Metric: "speedup/NoEncr_FNW", Paper: 1.40, Tolerance: 0.15,
			Note: "Fig. 16: unencrypted ceiling (simulator compresses the tail, see EXPERIMENTS.md)"},
		{Experiment: "fig16", Kind: Ordering, Metrics: []string{"speedup/NoEncr_FNW", "speedup/DEUCE", "speedup/Encr_FNW"}, MinGap: 0.02,
			Note: "Fig. 16 shape: NoEncr > DEUCE > Encr-FNW"},

		// Figure 17 — energy, power, EDP (§6.6), normalized to Encr_DCW.
		{Experiment: "fig17", Kind: Ratio, Metric: "speedup/DEUCE", Paper: 1.27, Tolerance: 0.12, Note: "Fig. 17: DEUCE speedup"},
		{Experiment: "fig17", Kind: Ratio, Metric: "mem_energy/DEUCE", Paper: 0.57, Tolerance: 0.25, Note: "Fig. 17: DEUCE memory energy"},
		{Experiment: "fig17", Kind: Ratio, Metric: "mem_power/DEUCE", Paper: 0.72, Tolerance: 0.25, Note: "Fig. 17: DEUCE memory power"},
		{Experiment: "fig17", Kind: Ratio, Metric: "edp/DEUCE", Paper: 0.57, Tolerance: 0.25, Note: "Fig. 17: DEUCE system EDP"},
		{Experiment: "fig17", Kind: Ratio, Metric: "speedup/Encr_FNW", Paper: 1.0, Tolerance: 0.1, Note: "Fig. 17: Encr-FNW speedup"},
		{Experiment: "fig17", Kind: Ratio, Metric: "mem_energy/Encr_FNW", Paper: 0.89, Tolerance: 0.1, Note: "Fig. 17: Encr-FNW memory energy"},
		{Experiment: "fig17", Kind: Ratio, Metric: "mem_power/Encr_FNW", Paper: 0.89, Tolerance: 0.1, Note: "Fig. 17: Encr-FNW memory power"},
		{Experiment: "fig17", Kind: Ratio, Metric: "edp/Encr_FNW", Paper: 0.96, Tolerance: 0.1, Note: "Fig. 17: Encr-FNW system EDP"},

		// Figure 18 — DEUCE with Block-Level Encryption (§7.1).
		{Experiment: "fig18", Kind: Absolute, Metric: "flips/BLE", Paper: 0.33, Tolerance: 0.08,
			Note: "Fig. 18: BLE (documented simulator deviation, see EXPERIMENTS.md)"},
		{Experiment: "fig18", Kind: Absolute, Metric: "flips/DEUCE", Paper: 0.24, Tolerance: 0.03,
			Note: "Fig. 18: DEUCE reference point"},
		{Experiment: "fig18", Kind: Absolute, Metric: "flips/BLE+DEUCE", Paper: 0.199, Tolerance: 0.03,
			Note: "Fig. 18: the combination beats either alone"},
		{Experiment: "fig18", Kind: Ordering, Metrics: []string{"flips/BLE", "flips/DEUCE", "flips/BLE+DEUCE"}, MinGap: 0.01,
			Note: "Fig. 18 shape: BLE > DEUCE > BLE+DEUCE"},
	}
}

// ExtensionExpectations gates the durability drills that go beyond the
// paper (exp.Extensions, DESIGN.md §13). Unlike the calibrated workload
// statistics above, every metric here is a structural 0/1 indicator from a
// deterministic simulated-crash drill, so the tolerance is exactly zero:
// any deviation means the persistence-domain model or the recovery
// detection broke, not that a measurement drifted.
func ExtensionExpectations() []Expectation {
	return []Expectation{
		// ext-eadr — ADR vs eADR persistence domains.
		{Experiment: "ext-eadr", Kind: Absolute, Metric: "data_loss/adr", Paper: 1, Tolerance: 0,
			Note: "ext-eadr: an ADR crash must lose the writes queued past the last Sync"},
		{Experiment: "ext-eadr", Kind: Absolute, Metric: "at_checkpoint/adr", Paper: 1, Tolerance: 0,
			Note: "ext-eadr: ADR recovery lands exactly on the last Sync's durable image"},
		{Experiment: "ext-eadr", Kind: Absolute, Metric: "data_loss/eadr", Paper: 0, Tolerance: 0,
			Note: "ext-eadr: an eADR crash loses nothing — the domain covers the write queue"},

		// ext-ctrrec — torn-sync detection and localization.
		{Experiment: "ext-ctrrec", Kind: Absolute, Metric: "detected/tear", Paper: 1, Tolerance: 0,
			Note: "ext-ctrrec: a crash between cell and counter writeback must be detected on restart"},
		{Experiment: "ext-ctrrec", Kind: Absolute, Metric: "located/ctr_region", Paper: 1, Tolerance: 0,
			Note: "ext-ctrrec: every diverged page localizes to the counter region (cells flush first)"},
		{Experiment: "ext-ctrrec", Kind: Absolute, Metric: "detected/clean", Paper: 0, Tolerance: 0,
			Note: "ext-ctrrec: a completed sync raises no false positive"},
	}
}
