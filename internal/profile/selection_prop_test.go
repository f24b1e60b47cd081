package profile_test

import (
	"testing"

	"aptget/internal/pebs"
	"aptget/internal/profile"
	"aptget/internal/testkit"
)

// genCandidates builds a seed-deterministic share-gated candidate set:
// unique PCs, skewed sample counts, stall sums ranging from zero (an
// always-in-flight load) to fully exposed misses. Roughly one set in
// eight carries no stall data at all, exercising the 1-D fallback for
// profiles without latency sampling.
func genCandidates(r *testkit.RNG) []pebs.Load {
	n := 1 + r.Intn(40)
	loads := make([]pebs.Load, n)
	noStall := r.Intn(8) == 0
	for i := range loads {
		samples := uint64(1 + r.Intn(1000))
		var stall uint64
		if !noStall && r.Intn(5) > 0 {
			stall = samples * uint64(r.Intn(300))
		}
		loads[i] = pebs.Load{
			PC:          uint64(4 + 4*i),
			Samples:     samples,
			StallCycles: stall,
		}
	}
	return loads
}

// shuffle permutes loads in place with the test's own RNG.
func shuffle(r *testkit.RNG, loads []pebs.Load) {
	for i := len(loads) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		loads[i], loads[j] = loads[j], loads[i]
	}
}

func keptPCs(loads []pebs.Load) map[uint64]bool {
	m := make(map[uint64]bool, len(loads))
	for _, l := range loads {
		m[l.PC] = true
	}
	return m
}

// TestSelectLoadsOrderIndependent: the gate plus SortByScore's total
// tie-break order make SelectLoads a pure function of the candidate
// *set* — any input permutation yields the identical ranked sequence.
func TestSelectLoadsOrderIndependent(t *testing.T) {
	r := testkit.NewRNG(0x5e1ec7)
	for trial := 0; trial < 200; trial++ {
		cand := genCandidates(r)
		instr := uint64(r.Intn(10_000_000))
		opt := profile.Options{PEBSPeriod: 7, MPKIOnly: r.Bool()}
		if r.Bool() {
			opt.MinLoadSCKPI = float64(r.Intn(200))
		}

		// A set with no stall data takes the 1-D fallback even
		// when MPKIOnly is off; that path, like the explicit ablation,
		// preserves input order by design (ranked upstream by
		// Delinquent), so it is checked as a set rather than a sequence.
		oneD := opt.MPKIOnly
		if !oneD {
			oneD = true
			for _, l := range cand {
				if l.StallCycles > 0 {
					oneD = false
					break
				}
			}
		}

		ref := profile.SelectLoads(append([]pebs.Load(nil), cand...), instr, opt)
		for p := 0; p < 4; p++ {
			perm := append([]pebs.Load(nil), cand...)
			shuffle(r, perm)
			got := profile.SelectLoads(perm, instr, opt)
			if oneD {
				if len(got) != len(ref) {
					t.Fatalf("trial %d perm %d: kept %d loads, want %d",
						trial, p, len(got), len(ref))
				}
				want := keptPCs(ref)
				for _, l := range got {
					if !want[l.PC] {
						t.Fatalf("trial %d perm %d: pc %d kept under one order only",
							trial, p, l.PC)
					}
				}
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("trial %d perm %d: kept %d loads, want %d",
					trial, p, len(got), len(ref))
			}
			for i := range got {
				if got[i].PC != ref[i].PC {
					t.Fatalf("trial %d perm %d: rank %d is pc %d, want pc %d",
						trial, p, i, got[i].PC, ref[i].PC)
				}
				if got[i].Score != ref[i].Score {
					t.Fatalf("trial %d perm %d: pc %d scored %v vs %v",
						trial, p, got[i].PC, got[i].Score, ref[i].Score)
				}
			}
		}
	}
}

// TestSelectLoadsThresholdMonotone: raising the score gate never admits
// a load — the kept set at a higher MinLoadSCKPI is a subset of the
// kept set at any lower one. This is what makes the selection frontier
// (aptbench -exp selection) a genuine frontier rather than a scatter.
func TestSelectLoadsThresholdMonotone(t *testing.T) {
	r := testkit.NewRNG(0xf40)
	thresholds := []float64{-1, 1, 10, 25, 50, 100, 200, 1000}
	for trial := 0; trial < 200; trial++ {
		cand := genCandidates(r)
		instr := uint64(1 + r.Intn(10_000_000))
		prev := map[uint64]bool(nil) // kept set at the previous (lower) threshold
		for i, th := range thresholds {
			kept := keptPCs(profile.SelectLoads(
				append([]pebs.Load(nil), cand...), instr,
				profile.Options{PEBSPeriod: 7, MinLoadSCKPI: th}))
			if i > 0 {
				for pc := range kept {
					if !prev[pc] {
						t.Fatalf("trial %d: pc %d kept at gate %.0f but dropped at %.0f",
							trial, pc, th, thresholds[i-1])
					}
				}
			}
			prev = kept
		}
	}
}
