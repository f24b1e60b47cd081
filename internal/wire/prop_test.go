package wire

import (
	"bytes"
	"reflect"
	"testing"

	"aptget/internal/lbr"
	"aptget/internal/runner"
	"aptget/internal/testkit"
)

// randomProfile draws a profile from the testkit generators: adversarial
// LBR streams (wrapped stamps, truncated snapshots) under random latch
// sets, random delinquent loads with non-zero stall sums, and a random
// loop nest.
func randomProfile(r *testkit.RNG) *Profile {
	latch := []uint64{uint64(8 + r.Intn(512)), uint64(600 + r.Intn(512))}
	breakers := []uint64{uint64(2000 + r.Intn(512))}
	p := &Profile{
		App:          []string{"BFS", "IS", "HJ8", "SSSP"}[r.Intn(4)],
		Cycles:       r.Uint64() >> 16,
		Instructions: r.Uint64() >> 16,
	}
	if n := r.Intn(6); n > 0 {
		for i := 0; i < n; i++ {
			p.Loads = append(p.Loads, Load{
				PC:          uint64(r.Intn(4096)),
				Samples:     uint64(1 + r.Intn(1000)),
				StallCycles: uint64(1 + r.Intn(1<<20)),
				Share:       r.Float64(),
			})
		}
	}
	if n := r.Intn(20); n > 0 {
		p.Samples = testkit.Samples(r, latch, breakers, n)
	}
	if n := r.Intn(5); n > 0 {
		for i := 0; i < n; i++ {
			parent := int32(-1)
			if i > 0 && r.Bool() {
				parent = int32(r.Intn(i))
			}
			p.Loops = append(p.Loops, LoopShape{
				Depth:        int32(1 + r.Intn(4)),
				Parent:       parent,
				Latches:      int32(1 + r.Intn(3)),
				Blocks:       int32(1 + r.Intn(9)),
				HasInduction: r.Bool(),
			})
		}
	}
	return p
}

// randomPlanSet draws plans with every field set, including the non-zero
// 2-D selection provenance (Score, MeanStall).
func randomPlanSet(r *testkit.RNG) *PlanSet {
	ps := &PlanSet{App: "prop"}
	for i, n := 0, r.Intn(8); i < n; i++ {
		pl := Plan{
			LoadPC:              uint64(r.Intn(4096)),
			LoadName:            []string{"", "edge", "bucket_scan", "T[B[i]]"}[r.Intn(4)],
			Site:                []string{"inner", "outer"}[r.Intn(2)],
			Distance:            1 + r.Int63n(256),
			IC:                  r.Float64() * 100,
			MC:                  r.Float64() * 500,
			AvgTrip:             r.Float64() * 200,
			K:                   1 + r.Int63n(10),
			InnerDistance:       1 + r.Int63n(256),
			OuterDistance:       r.Int63n(256),
			LatencySamples:      r.Int63n(10000),
			DroppedNonMonotonic: r.Int63n(50),
			Fallback:            []string{"", "trip count unmeasurable (LBR overflow); inner site kept"}[r.Intn(2)],
			Score:               1 + r.Float64()*1000,
			MeanStall:           1 + r.Float64()*400,
		}
		for j, m := 0, r.Intn(4); j < m; j++ {
			pl.PeaksInner = append(pl.PeaksInner, r.Float64()*400)
		}
		for j, m := 0, r.Intn(3); j < m; j++ {
			pl.PeaksOuter = append(pl.PeaksOuter, r.Float64()*1000)
		}
		ps.Plans = append(ps.Plans, pl)
	}
	return ps
}

// TestProfileRoundTripProperty: decode(encode(x)) == canonical(x) for
// generated profiles, structurally (reflect.DeepEqual) and byte-wise.
func TestProfileRoundTripProperty(t *testing.T) {
	r := testkit.NewRNG(0x77697265)
	for i := 0; i < 300; i++ {
		p := randomProfile(r)
		data := EncodeProfile(p)
		got, err := DecodeProfile(data)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		p.Canonicalize() // Encode canonicalized a copy; match it
		for i := range p.Samples {
			// Empty and nil entry slices encode identically; the decoder
			// yields nil.
			if len(p.Samples[i].Entries) == 0 {
				p.Samples[i].Entries = nil
			}
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("iter %d: decode(encode(x)) != canonical(x)\n in: %+v\nout: %+v", i, p, got)
		}
		if !bytes.Equal(EncodeProfile(got), data) {
			t.Fatalf("iter %d: encode(decode(b)) != b", i)
		}
	}
}

func TestPlanSetRoundTripProperty(t *testing.T) {
	r := testkit.NewRNG(0x706c616e)
	for i := 0; i < 300; i++ {
		ps := randomPlanSet(r)
		data := EncodePlanSet(ps)
		got, err := DecodePlanSet(data)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(ps, got) {
			t.Fatalf("iter %d: decode(encode(x)) != x\n in: %+v\nout: %+v", i, ps, got)
		}
		if n, err := PlanCount(data); err != nil || n != len(ps.Plans) {
			t.Fatalf("iter %d: PlanCount = %d, %v; want %d", i, n, err, len(ps.Plans))
		}
	}
}

// TestFingerprintStableAcrossWorkersAndOrderings: the fingerprint of one
// logical profile must not depend on the slice ordering the caller used
// or on the runner pool width the encoding happens under.
func TestFingerprintStableAcrossWorkersAndOrderings(t *testing.T) {
	defer runner.SetMaxWorkers(0)
	r := testkit.NewRNG(0x66707374)
	for i := 0; i < 20; i++ {
		p := randomProfile(r)
		want := FingerprintOf(p)

		// Shuffled orderings of the client-controlled slices.
		for trial := 0; trial < 4; trial++ {
			q := *p
			q.Loads = append([]Load(nil), p.Loads...)
			q.Samples = append([]lbr.Sample(nil), p.Samples...)
			for k := len(q.Loads) - 1; k > 0; k-- {
				j := r.Intn(k + 1)
				q.Loads[k], q.Loads[j] = q.Loads[j], q.Loads[k]
			}
			for k := len(q.Samples) - 1; k > 0; k-- {
				j := r.Intn(k + 1)
				q.Samples[k], q.Samples[j] = q.Samples[j], q.Samples[k]
			}
			if got := FingerprintOf(&q); got != want {
				t.Fatalf("iter %d: fingerprint moved under reordering: %s != %s", i, got, want)
			}
		}

		// Concurrent encoding at several pool widths.
		for _, width := range []int{1, 2, 8} {
			runner.SetMaxWorkers(width)
			fps, err := runner.Map(16, func(int) (Fingerprint, error) {
				return FingerprintOf(p), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, fp := range fps {
				if fp != want {
					t.Fatalf("iter %d: fingerprint unstable at width %d", i, width)
				}
			}
		}
	}
}
