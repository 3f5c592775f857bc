package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestHandleMemoPerKey: concurrent callers on two configurations of one
// handle. Each key builds exactly once, every caller of a key gets that
// build's value, and callers of one key never wait on the other key's
// build. A failed build is not kept: the next caller builds again.
func TestHandleMemoPerKey(t *testing.T) {
	s := newSim(t)
	h, err := s.AcquireChip(5)
	if err != nil {
		t.Fatal(err)
	}
	keyA := staticKey{cfg: TSASV.Config(), class: workload.Int}
	keyB := staticKey{cfg: TSASVQFU.Config(), class: workload.Int}
	var buildsA, buildsB atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	buildA := func() (adapt.OperatingPoint, error) {
		buildsA.Add(1)
		started <- struct{}{}
		<-release
		return adapt.OperatingPoint{FCore: 0.9}, nil
	}
	buildB := func() (adapt.OperatingPoint, error) {
		buildsB.Add(1)
		return adapt.OperatingPoint{FCore: 0.8}, nil
	}

	const callers = 8
	run := func(k staticKey, build func() (adapt.OperatingPoint, error), out []adapt.OperatingPoint) *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pt, err := memoize(&h.mu, h.statics, k, build)
				if err != nil {
					t.Error(err)
				}
				out[i] = pt
			}()
		}
		return &wg
	}
	gotA := make([]adapt.OperatingPoint, callers)
	wgA := run(keyA, buildA, gotA)
	<-started // key A's build is in flight and stays blocked below

	gotB := make([]adapt.OperatingPoint, callers)
	wgB := run(keyB, buildB, gotB)
	doneB := make(chan struct{})
	go func() { wgB.Wait(); close(doneB) }()
	select {
	case <-doneB:
	case <-time.After(20 * time.Second):
		close(release)
		t.Fatal("callers of key B waited on key A's build")
	}
	close(release)
	wgA.Wait()

	if n := buildsA.Load(); n != 1 {
		t.Errorf("key A built %d times, want 1", n)
	}
	if n := buildsB.Load(); n != 1 {
		t.Errorf("key B built %d times, want 1", n)
	}
	for i := range gotA {
		if gotA[i].FCore != 0.9 || gotB[i].FCore != 0.8 {
			t.Fatalf("caller %d got A %v, B %v; want 0.9, 0.8", i, gotA[i].FCore, gotB[i].FCore)
		}
	}

	keyC := staticKey{cfg: All.Config(), class: workload.FP}
	boom := errors.New("boom")
	if _, err := memoize(&h.mu, h.statics, keyC, func() (adapt.OperatingPoint, error) {
		return adapt.OperatingPoint{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed build returned %v, want %v", err, boom)
	}
	pt, err := memoize(&h.mu, h.statics, keyC, func() (adapt.OperatingPoint, error) {
		return adapt.OperatingPoint{FCore: 0.7}, nil
	})
	if err != nil || pt.FCore != 0.7 {
		t.Fatalf("retry after a failed build: %v, %v; want 0.7", pt.FCore, err)
	}
}

// TestHandleStaticPointConcurrent drives the real static-point search on
// two configurations of one handle from concurrent callers: each
// (configuration, class) point is chosen once — one staticpt build each —
// and equals the point a fresh core of that configuration chooses alone.
func TestHandleStaticPointConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive static-point search")
	}
	apps := make([]workload.App, 0, 2)
	for _, name := range []string{"gcc", "swim"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	envs := []Environment{TSASV, TSASVQFU}

	ref := newSim(t)
	refH, err := ref.AcquireChip(7)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]adapt.OperatingPoint, len(envs))
	for i, env := range envs {
		cpu, err := ref.HandleCore(refH, env)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = ref.StaticPoint(cpu, workload.Int, apps); err != nil {
			t.Fatal(err)
		}
	}

	s := newSim(t)
	reg := obs.NewRegistry()
	store, err := artifact.Open(t.TempDir(), artifact.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	s.SetArtifacts(store)
	h, err := s.AcquireChip(7)
	if err != nil {
		t.Fatal(err)
	}
	const callersPerEnv = 3
	got := make([]adapt.OperatingPoint, len(envs)*callersPerEnv)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpu, err := s.HandleCore(h, envs[i%len(envs)])
			if err != nil {
				t.Error(err)
				return
			}
			if got[i], err = s.HandleStaticPoint(h, cpu, workload.Int, apps); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := reg.Counter("artifact.cache.staticpt.misses").Value(); n != int64(len(envs)) {
		t.Errorf("%d staticpt builds, want one per configuration (%d)", n, len(envs))
	}
	for i := range got {
		w := want[i%len(envs)]
		if got[i].FCore != w.FCore || got[i].Queue != w.Queue || got[i].FU != w.FU {
			t.Errorf("caller %d (%v): point %+v, want %+v", i, envs[i%len(envs)], got[i], w)
		}
	}
}
