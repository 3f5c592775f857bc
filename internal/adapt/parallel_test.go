package adapt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/tech"
	"repro/internal/vats"
)

// trainOptsForTest returns a small but non-trivial training budget.
func trainOptsForTest(examples int) TrainOptions {
	opts := DefaultTrainOptions()
	opts.Examples = examples
	opts.Fuzzy.Epochs = 2
	opts.Seed = 4242
	return opts
}

// TestTrainFuzzySolverWorkerDeterminism: the two-stage trainer must
// produce bit-exact controllers at every worker count — the serialized
// solver (sorted, canonical JSON) is compared byte for byte, and the
// parallel runs must also match the worker-count-1 run that reuses the
// caller's cores directly.
func TestTrainFuzzySolverWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	train := func(workers int) []byte {
		// Fresh cores per run: solve memos and PE tables warm up
		// differently at different worker counts, and results must not
		// depend on either.
		cores := []*Core{buildCore(t, 21, preferred), buildCore(t, 22, preferred)}
		opts := trainOptsForTest(120)
		opts.Workers = workers
		s, err := TrainFuzzySolver(cores, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ref := train(1)
	for _, w := range []int{2, 4, 8} {
		if got := train(w); !bytes.Equal(ref, got) {
			t.Errorf("workers=%d: serialized solver differs from workers=1", w)
		}
	}
}

// TestWorkerViewSolvesMatchParent: a view must answer Freq/Power queries
// bitwise identically to its parent, with and without warm memos.
func TestWorkerViewSolvesMatchParent(t *testing.T) {
	core := buildCore(t, 23, preferred)
	view := core.WorkerView()
	q := FreqQuery{
		THK: thTest, AlphaF: 0.4, Rho: 0.9,
		Variant: vats.IdentityVariant(), PowerMult: 1,
	}
	for i := 0; i < core.N(); i += 3 {
		want := core.FreqSolve(i, q)
		got := view.FreqSolve(i, q)
		if want != got {
			t.Errorf("sub %d: view FreqSolve %+v != parent %+v", i, got, want)
		}
		fCore := tech.SnapFRelDown(want.FMax * 0.9)
		pw := core.PowerSolve(i, fCore, q)
		pv := view.PowerSolve(i, fCore, q)
		if pw != pv {
			t.Errorf("sub %d: view PowerSolve %+v != parent %+v", i, pv, pw)
		}
		// Repeat hits the view's own memo; must stay identical.
		if again := view.FreqSolve(i, q); again != want {
			t.Errorf("sub %d: view memo hit %+v != parent %+v", i, again, want)
		}
	}
}

// TestConcurrentSharedPEStore drives many WorkerViews of one core from
// concurrent goroutines over an initially cold shared PE-table store, so
// `go test -race` exercises the store's atomic publication (dense slots)
// and mutexed overflow path while lazy builds race. Every goroutine must
// see the same solve results as a serial reference core.
func TestConcurrentSharedPEStore(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent solve sweep")
	}
	parent := buildCore(t, 24, allConfig)
	ref := buildCore(t, 24, allConfig)
	queries := []FreqQuery{
		{THK: thTest, AlphaF: 0.3, Rho: 0.8, Variant: vats.IdentityVariant(), PowerMult: 1},
		{THK: 52 + 273.15, AlphaF: 0.9, Rho: 2.1, Variant: vats.IdentityVariant(), PowerMult: 1},
		{THK: 66 + 273.15, AlphaF: 0.12, Rho: 0.5, Variant: tech.FULowSlope.Variant(), PowerMult: tech.LowSlopePowerMult},
		{THK: 58 + 273.15, AlphaF: 0.55, Rho: 1.4, Variant: tech.QueueThreeQuarter.Variant(), PowerMult: tech.QueueSmallFrac + 0.05},
	}
	type key struct{ sub, q int }
	want := make(map[key]FreqResult)
	for i := 0; i < ref.N(); i++ {
		for qi, q := range queries {
			want[key{i, qi}] = ref.FreqSolve(i, q)
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := parent.WorkerView()
			// Strided sweeps overlap across goroutines (three share each
			// parity), racing on the same cold table slots without every
			// goroutine re-solving all 15 subsystems.
			for i := w % 2; i < view.N(); i += 2 {
				for qi, q := range queries {
					if got := view.FreqSolve(i, q); got != want[key{i, qi}] {
						errs <- "concurrent solve diverged from serial reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFuzzySolverFingerprint: the memoized fingerprint is the SHA-256 of
// the binary encoding, concurrent first calls agree, and decoding a
// different solver into the same value replaces it instead of serving
// the stale digest.
func TestFuzzySolverFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	train := func(seed int64) *FuzzySolver {
		s, err := TrainFuzzySolver([]*Core{buildCore(t, seed, preferred)}, trainOptsForTest(40))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := train(31), train(32)
	digest := func(s *FuzzySolver) string {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		return hex.EncodeToString(sum[:])
	}
	want := digest(a)
	var wg sync.WaitGroup
	got := make([]string, 4)
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = a.Fingerprint() }()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("caller %d: fingerprint %s, want %s", i, fp, want)
		}
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("solvers of different chips share a fingerprint")
	}
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if fp := a.Fingerprint(); fp != b.Fingerprint() {
		t.Fatalf("after decoding: fingerprint %s, want the decoded solver's %s", fp, b.Fingerprint())
	}
	js, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	c := train(31)
	c.Fingerprint()
	if err := c.UnmarshalJSON(js); err != nil {
		t.Fatal(err)
	}
	if fp := c.Fingerprint(); fp != b.Fingerprint() {
		t.Fatalf("after JSON decoding: fingerprint %s, want %s", fp, b.Fingerprint())
	}
}
