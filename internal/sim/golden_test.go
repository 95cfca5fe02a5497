package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from this build's output")

// digest hashes values by their exact bits, so two runs agree only when
// every float is bit-identical.
type digest struct{ h hash.Hash }

func (d digest) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d digest) i(vs ...int) {
	for _, v := range vs {
		d.f(float64(v))
	}
}

func (d digest) b(vs ...bool) {
	for _, v := range vs {
		if v {
			d.h.Write([]byte{1})
		} else {
			d.h.Write([]byte{0})
		}
	}
}

func (d digest) timeline(tl profile.Timeline) {
	d.i(len(tl))
	for _, s := range tl {
		d.f(s.T, s.V)
	}
}

// run hashes everything one simulated run produces: the scalar Result, the
// Table 6 statistics, and the full artifact — every container's timeline
// samples, every GC event and every task event.
func (d digest) run(res sim.Result, p *profile.Profile) {
	d.f(res.RuntimeSec, res.MaxHeapUtil, res.CPUAvg, res.DiskAvg, res.GCOverhead, res.CacheHitRatio, res.SpillFraction)
	d.b(res.Aborted)
	d.i(res.ContainerFailures)

	st := profile.Generate(p)
	d.i(st.N, st.P, st.CoresPerNode)
	d.f(st.MhMB, st.CPUAvg, st.DiskAvg, st.MiMB, st.McMB, st.MsMB, st.MuMB, st.H, st.S)
	d.b(st.HadFullGC)
	d.f(p.MaxHeapUtilization())

	d.f(p.HeapSizeMB, p.Duration, p.CPUShareAvg, p.DiskShareAvg, p.SpilledMB, p.ShuffledMB)
	d.i(p.CoresPerNode, p.CacheHits, p.CacheRequests, p.ContainerFailures)
	d.b(p.Aborted)
	d.timeline(p.CPUUtil)
	d.timeline(p.DiskUtil)

	d.i(len(p.Containers))
	for _, c := range p.Containers {
		d.i(c.ID, c.Node)
		d.f(c.HeapCapMB, c.PhysCapMB, c.FirstTaskHeapMB)
		d.timeline(c.HeapUsed)
		d.timeline(c.OldUsed)
		d.timeline(c.RSS)
		d.timeline(c.CacheUsed)
		d.timeline(c.ShuffleUsed)
		d.i(len(c.GCEvents))
		for _, g := range c.GCEvents {
			d.f(g.T, g.Pause, g.HeapBefore, g.HeapAfter, g.OldAfter, g.CacheAtGC)
			d.b(g.Full)
			d.i(g.Running)
		}
	}

	tasks := 0
	p.EachTask(func(t profile.TaskEvent) {
		tasks++
		d.i(t.Stage, t.Index, t.Container)
		d.f(t.Start, t.End, t.GCTime, t.SpillMB, t.ShuffleMB)
	})
	d.i(tasks)
}

// TestGoldenDigest pins the simulator's output bit for bit: clusters A and B
// × the Table 2 benchmarks × every 7th grid configuration × 3 seeds. The
// digests in testdata/golden.txt were generated from the per-task,
// per-container recorder that preceded the run-length profile, so a match
// proves the run-length form loses nothing and leaves the RNG stream alone.
func TestGoldenDigest(t *testing.T) {
	var got strings.Builder
	runs := 0
	for _, cl := range []cluster.Spec{cluster.A(), cluster.B()} {
		for _, wl := range workload.Benchmarks() {
			d := digest{sha256.New()}
			grid := tune.NewSpace(cl, wl).Grid()
			for gi := 0; gi < len(grid); gi += 7 {
				for _, seed := range []uint64{1, 42, 0xfeedface} {
					res, prof := sim.Run(cl, wl, grid[gi], seed)
					d.run(res, prof)
					runs++
				}
			}
			fmt.Fprintf(&got, "%s %s %x\n", cl.Name, wl.Name, d.h.Sum(nil))
		}
	}
	fmt.Fprintf(&got, "runs %d\n", runs)

	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("simulator output changed\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
