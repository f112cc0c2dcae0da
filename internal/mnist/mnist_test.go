package mnist

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(20, 9)
	b := Synthetic(20, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("image %d differs across same-seed generations", i)
		}
	}
	c := Synthetic(20, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different corpora")
	}
}

func TestSyntheticClassBalance(t *testing.T) {
	imgs := Synthetic(100, 3)
	var count [10]int
	for i := range imgs {
		count[imgs[i].Label]++
	}
	for c, n := range count {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10 (round-robin)", c, n)
		}
	}
}

func TestSyntheticPixelsInRangeAndInk(t *testing.T) {
	imgs := Synthetic(50, 4)
	for i := range imgs {
		ink := 0
		for _, p := range imgs[i].Pixels {
			if p > 0 {
				ink++
			}
		}
		// A digit should light a plausible fraction of the 784 pixels.
		if ink < 30 || ink > 500 {
			t.Fatalf("image %d (label %d) has %d lit pixels", i, imgs[i].Label, ink)
		}
	}
}

func TestSyntheticClassSingle(t *testing.T) {
	imgs := SyntheticClass(7, 12, 5)
	for i := range imgs {
		if imgs[i].Label != 7 {
			t.Fatalf("SyntheticClass produced label %d", imgs[i].Label)
		}
	}
}

func TestSyntheticSeparability(t *testing.T) {
	// The corpus must be classifiable: nearest-centroid accuracy well
	// above chance is the substitution's fitness criterion (DESIGN.md).
	train := Synthetic(500, 1)
	test := Synthetic(200, 2)
	var cent [10][Side * Side]float64
	var cnt [10]float64
	for i := range train {
		c := train[i].Label
		cnt[c]++
		for j, p := range train[i].Pixels {
			cent[c][j] += float64(p)
		}
	}
	for c := range cent {
		for j := range cent[c] {
			cent[c][j] /= cnt[c]
		}
	}
	correct := 0
	for i := range test {
		best, bestD := -1, 1e300
		for c := 0; c < 10; c++ {
			d := 0.0
			for j, p := range test[i].Pixels {
				diff := float64(p) - cent[c][j]
				d += diff * diff
			}
			if d < bestD {
				bestD, best = d, c
			}
		}
		if best == int(test[i].Label) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.75 {
		t.Fatalf("nearest-centroid accuracy %.3f, want ≥0.75 (corpus too hard or broken)", acc)
	}
}

func TestIDXRoundTrip(t *testing.T) {
	dir := t.TempDir()
	imgPath := filepath.Join(dir, "imgs")
	lblPath := filepath.Join(dir, "lbls")
	orig := Synthetic(30, 11)
	if err := WriteIDX(orig, imgPath, lblPath); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIDX(imgPath, lblPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip count %d != %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("image %d corrupted in round trip", i)
		}
	}
}

func TestIDXRejectsBadMagic(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte{0, 0, 8, 1, 0, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIDX(bad, bad); err == nil {
		t.Fatal("expected magic error for label file read as images")
	}
}

// TestIDXHugeCountHeader: a 16-byte image file whose header claims
// 0xFFFFFFFF images must fail on the missing data without first
// allocating room for the claimed count (≈3.4 TB).
func TestIDXHugeCountHeader(t *testing.T) {
	dir := t.TempDir()
	imgPath, lblPath := filepath.Join(dir, "imgs"), filepath.Join(dir, "lbls")
	if err := WriteIDX(nil, imgPath, lblPath); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(hdr[4:8], 0xFFFFFFFF)
	if err := os.WriteFile(imgPath, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadIDX(imgPath, lblPath); err == nil {
		t.Fatal("truncated image file with a huge count was accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 16-byte file allocated %d bytes", grew)
	}
}

// TestIDXRejectsOutOfRangeLabel: labels index per-class tables of size
// 10 downstream, so a label byte above 9 is a read error.
func TestIDXRejectsOutOfRangeLabel(t *testing.T) {
	dir := t.TempDir()
	imgPath, lblPath := filepath.Join(dir, "imgs"), filepath.Join(dir, "lbls")
	if err := WriteIDX(Synthetic(5, 1), imgPath, lblPath); err != nil {
		t.Fatal(err)
	}
	lbl, err := os.ReadFile(lblPath)
	if err != nil {
		t.Fatal(err)
	}
	lbl[8+3] = 10
	if err := os.WriteFile(lblPath, lbl, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIDX(imgPath, lblPath); err == nil {
		t.Fatal("label 10 was accepted")
	}
}

// FuzzReadIDX: any image/label byte pair either decodes to images the
// data actually holds, all labeled 0–9, or fails with an error. Seeded
// with WriteIDX output of the synthetic corpus.
func FuzzReadIDX(f *testing.F) {
	dir := f.TempDir()
	for _, n := range []int{0, 1, 3} {
		imgPath, lblPath := filepath.Join(dir, "imgs"), filepath.Join(dir, "lbls")
		if err := WriteIDX(Synthetic(n, 1), imgPath, lblPath); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(imgPath)
		if err != nil {
			f.Fatal(err)
		}
		lbl, err := os.ReadFile(lblPath)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img, lbl)
	}
	f.Fuzz(func(t *testing.T, img, lbl []byte) {
		imgs, err := decodeIDX(bytes.NewReader(img), bytes.NewReader(lbl))
		if err != nil {
			return
		}
		if len(imgs)*Side*Side > len(img) {
			t.Fatalf("decoded %d images from %d bytes", len(imgs), len(img))
		}
		for i := range imgs {
			if imgs[i].Label > 9 {
				t.Fatalf("image %d has label %d", i, imgs[i].Label)
			}
		}
	})
}

func TestLoadFallsBackToSynthetic(t *testing.T) {
	imgs, err := Load(t.TempDir(), 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 40 {
		t.Fatalf("got %d images", len(imgs))
	}
}

func TestLoadReadsRealIDXWhenPresent(t *testing.T) {
	dir := t.TempDir()
	orig := Synthetic(25, 13)
	if err := WriteIDX(orig,
		filepath.Join(dir, "train-images-idx3-ubyte"),
		filepath.Join(dir, "train-labels-idx1-ubyte")); err != nil {
		t.Fatal(err)
	}
	imgs, err := Load(dir, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 10 {
		t.Fatalf("got %d images, want truncation to 10", len(imgs))
	}
	if imgs[0] != orig[0] {
		t.Fatal("loaded images differ from written ones")
	}
}

// Property: every generated image keeps its label in 0..9 and pixels
// are deterministic functions of (label index, seed).
func TestSyntheticLabelProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		imgs := Synthetic(n, seed)
		for i := range imgs {
			if imgs[i].Label != uint8(i%10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
