package ivf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
)

// buildGolden pins the SHA-256 of Save's bytes for each fixture shape and
// quantizer variant. The hashes were recorded from the build that preceded
// the fast kernels (one scalar L2 per row, serial k-means++ seeding and PQ
// subspaces); any change to a distance's summation order, a tie-break or a
// training schedule moves them.
var buildGolden = map[string]string{
	"d64m8/pq":  "468efd8fe6fc737e3e1489a7b7215beed812137d84a5a0c28f501722d3c29872",
	"d64m8/opq": "fa0b4ef3560a3212826c61356475adc6c487a4fdebdb60301a08fdeb67707f62",
	"d64m8/dpq": "040cbf6bfdf1192f6bbaa949e52becb2787c294b56982e9e2ce56d35a7f7ecc2",
	"d24m6/pq":  "84ea56380c1ea735a09de2be704eb108a95ad6c0036a4135955ebc74344a5ba8",
	"d24m6/opq": "41805bd681a57e4313c25e2596dd6e1628c27954a53360d6284a4993cdb72a85",
	"d24m6/dpq": "f3996985050cb9deb1f2fdcc729ef75c8d6d773b8c4b42f704af76676e2b99e8",
}

// TestBuildBitIdentical builds fixed synthetic corpora with every quantizer
// variant at several worker counts. On every architecture the bytes must
// not depend on Workers. On amd64, where the Go compiler does not fuse a
// multiply and an add into one rounding, they must also match the recorded
// goldens; other architectures may fuse them and round differently.
func TestBuildBitIdentical(t *testing.T) {
	shapes := []struct {
		name string
		d, m int
	}{
		{"d64m8", 64, 8}, // long-vector coarse kernel, dsub = 8 PQ kernel
		{"d24m6", 24, 6}, // short-vector coarse kernel, dsub = 4 PQ kernel
	}
	for _, sh := range shapes {
		s := dataset.Generate(dataset.SynthConfig{
			N: 3000, D: sh.d, NumQueries: 1, NumClusters: 24, Noise: 10, Seed: 11,
		})
		for _, variant := range []string{"pq", "opq", "dpq"} {
			name := sh.name + "/" + variant
			var first string
			for _, workers := range []int{1, 2, 3} {
				ix, err := Build(s.Base, BuildConfig{
					NList: 32, PQ: pq.Config{M: sh.m, CB: 64, Iters: 4},
					Variant: variant, KMeansIters: 4, TrainSample: 1500,
					Seed: 5, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				var buf bytes.Buffer
				if err := ix.Save(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got := hex.EncodeToString(sum[:])
				if workers == 1 {
					first = got
				} else if got != first {
					t.Errorf("%s: workers=%d bytes %s differ from workers=1 %s", name, workers, got, first)
				}
			}
			if runtime.GOARCH != "amd64" {
				continue
			}
			if want := buildGolden[name]; first != want {
				t.Errorf("%s: index hash %s, golden %s", name, first, want)
			}
		}
	}
}
