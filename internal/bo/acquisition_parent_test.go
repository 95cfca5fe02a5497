package bo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"relm/internal/bo"
	"relm/internal/gbo"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

type acqDigest struct {
	Evals   int    `json:"evals"`
	FinalEI string `json:"final_ei_bits"`
	Trace   string `json:"trace_sha256"`
}

// TestAcquisitionMatchesParent pins what the acquisition computes, bit for
// bit: cold BO and GBO sessions on every workload, both clusters and two
// seeds run to the stopping rule, hashing each suggested configuration and
// each maximization's point and expected improvement. The digests record
// the rounding of math.Exp, whose amd64 code has an FMA and an SSE2 path.
// testdata/acquisition-parent-digest.json holds the FMA path's, written by
// the build that scored its pool one candidate at a time, before the
// batched path and the penalty skip; acquisition-parent-digest-nofma.json
// the SSE2 path's (GODEBUG=cpu.fma=off), written by the build that scored
// it four candidates per pass, before the sixteen-lane kernel and the lazy
// decode. A mismatch means a faster path changed a float. Never regenerate
// a file to make a speed-up pass.
func TestAcquisitionMatchesParent(t *testing.T) {
	got := make(map[string]acqDigest)
	for _, backend := range []string{"bo", "gbo"} {
		for _, cl := range []cluster.Spec{cluster.A(), cluster.B()} {
			for _, wl := range workload.Benchmarks() {
				for _, seed := range []uint64{1, 2} {
					key := fmt.Sprintf("%s/%s/%s/%d", backend, cl.Name, wl.Name, seed)
					got[key] = acquisitionTrace(t, backend, cl, wl, seed)
				}
			}
		}
	}
	buf, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	name := "acquisition-parent-digest.json"
	if !expFuses() {
		name = "acquisition-parent-digest-nofma.json"
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(buf, '\n'), want) {
		t.Fatalf("acquisition computed other points than %s records:\n got %s\nwant %s", name, buf, want)
	}
}

// expFuses reports whether math.Exp takes its FMA path: the two paths
// round exp(-2832/127) one ulp apart.
func expFuses() bool {
	x := -2832.0 / 127
	return math.Float64bits(math.Exp(x)) == 0x3dec6c89d1535833
}

// acquisitionTrace drives one cold session to its stopping rule and digests
// every suggestion and every acquisition result.
func acquisitionTrace(t *testing.T, backend string, cl cluster.Spec, wl workload.Spec, seed uint64) acqDigest {
	t.Helper()
	h := sha256.New()
	var final float64
	bo.SetAcquired(func(_ *bo.Tuner, x []float64, ei float64) {
		fmt.Fprintf(h, "acquire")
		for _, v := range x {
			fmt.Fprintf(h, " %016x", math.Float64bits(v))
		}
		fmt.Fprintf(h, " ei %016x\n", math.Float64bits(ei))
		final = ei
	})
	defer bo.SetAcquired(nil)

	ev := tune.NewEvaluator(cl, wl, seed)
	opts := bo.Options{Seed: seed}
	var tun tune.Tuner
	if backend == "gbo" {
		tun = gbo.NewTuner(cl, ev.Space, opts)
	} else {
		tun = bo.NewTuner(ev.Space, opts, nil, nil)
	}
	evals := 0
	for ; !tun.Done(); evals++ {
		cfg := tun.Suggest()
		fmt.Fprintf(h, "suggest %+v\n", cfg)
		tun.Observe(ev.Eval(cfg))
	}
	return acqDigest{Evals: evals, FinalEI: fmt.Sprintf("%016x", math.Float64bits(final)), Trace: hex.EncodeToString(h.Sum(nil))}
}

// BenchmarkMaximizeEI prices one acquisition maximization — a 256-candidate
// pool plus the hill-climb probes — at the surrogate sizes sessions run:
// n = 12 rows is the mean of a tune_offline session, n = 25 a long one.
// BO scores 4-dimensional rows; GBO 7-dimensional ones (knobs plus the
// three guide features) and applies the white-box penalty. The surrogate
// and incumbent stay fixed; the pool is redrawn every iteration.
func BenchmarkMaximizeEI(b *testing.B) {
	for _, backend := range []string{"bo", "gbo"} {
		for _, n := range []int{12, 25} {
			b.Run(fmt.Sprintf("%s/n=%d", backend, n), func(b *testing.B) {
				var inner *bo.Tuner
				bo.SetAcquired(func(t *bo.Tuner, _ []float64, _ float64) { inner = t })
				defer bo.SetAcquired(nil)
				ev := tune.NewEvaluator(cluster.A(), workload.KMeans(), 1)
				opts := bo.Options{Seed: 1, MaxIterations: 100, MinNewSamples: 100}
				var tun tune.Tuner = bo.NewTuner(ev.Space, opts, nil, nil)
				if backend == "gbo" {
					tun = gbo.NewTuner(ev.Cluster, ev.Space, opts)
				}
				for i := 0; i < n && !tun.Done(); i++ {
					tun.Observe(ev.Eval(tun.Suggest()))
				}
				if inner == nil || tun.Done() {
					b.Fatalf("no acquisition at n=%d", n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if ei := bo.MaximizeEI(inner); math.IsNaN(ei) {
						b.Fatal("NaN expected improvement")
					}
				}
			})
		}
	}
}
