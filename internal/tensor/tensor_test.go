package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(4)
	v.Fill(2)
	if got := v.Sum(); got != 8 {
		t.Fatalf("Sum = %v, want 8", got)
	}
	v.Scale(0.5)
	if got := v.Sum(); got != 4 {
		t.Fatalf("after Scale, Sum = %v, want 4", got)
	}
	w := Vector{1, 2, 3, 4}
	v.Add(w)
	if v[3] != 5 {
		t.Fatalf("Add: got %v", v)
	}
}

func TestVectorCopyIndependent(t *testing.T) {
	a := Vector{1, 2}
	b := a.Copy()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Copy must not alias")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	a := Vector{1}
	a.Add(Vector{1, 2})
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set mismatch")
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestAccumulateRowsMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(10, 6)
	m.RandFill(rng, 0, 1)
	active := []int{1, 4, 7}
	x := NewVector(10)
	for _, i := range active {
		x[i] = 1
	}
	// Dense oracle: want = mᵀ·x.
	want := NewVector(6)
	for i, xi := range x {
		for j := range want {
			want[j] += xi * m.At(i, j)
		}
	}
	got := NewVector(6)
	m.AccumulateRows(active, got)
	for j := range want {
		if math.Abs(want[j]-got[j]) > 1e-12 {
			t.Fatalf("AccumulateRows[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestNormalizeCols(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(8, 4)
	m.RandFill(rng, 0.1, 1)
	m.NormalizeCols(2.5)
	sums := m.ColSum()
	for j, s := range sums {
		if math.Abs(s-2.5) > 1e-9 {
			t.Fatalf("column %d sum %v, want 2.5", j, s)
		}
	}
}

func TestNormalizeColsSkipsZeroColumns(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Set(0, 0, 1)
	m.NormalizeCols(10)
	if m.At(0, 1) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero column must stay zero")
	}
	if m.At(0, 0) != 10 {
		t.Fatalf("nonzero column not normalized: %v", m.At(0, 0))
	}
}

func TestRowColSums(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	r0, r1 := m.Row(0).Sum(), m.Row(1).Sum()
	cs := m.ColSum()
	if r0 != 3 || r1 != 7 || cs[0] != 4 || cs[1] != 6 {
		t.Fatalf("sums: rows [%v %v] cols %v", r0, r1, cs)
	}
}

func TestMatrixEqual(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 1.0000001)
	if !a.Equal(b, 1e-5) {
		t.Fatal("should be equal within tolerance")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("should differ at tight tolerance")
	}
	c := NewMatrix(2, 3)
	if a.Equal(c, 1) {
		t.Fatal("shape mismatch must not be equal")
	}
}

// Property: NormalizeCols is idempotent.
func TestNormalizeColsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(6, 5)
		m.RandFill(rng, 0.01, 1)
		m.NormalizeCols(3)
		before := m.Copy()
		m.NormalizeCols(3)
		return m.Equal(before, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale then Scale by inverse returns the original vector.
func TestScaleInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVector(16)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		orig := v.Copy()
		v.Scale(3.5)
		v.Scale(1 / 3.5)
		for i := range v {
			if math.Abs(v[i]-orig[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum is linear — Sum(a+b) = Sum(a)+Sum(b).
func TestSumLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewVector(12), NewVector(12)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		sa, sb := a.Sum(), b.Sum()
		a.Add(b)
		return math.Abs(a.Sum()-(sa+sb)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Layout-aware kernel tests (hot-path engine) ---

func randomMatrix(t *testing.T, rows, cols int, seed int64) *Matrix {
	t.Helper()
	m := NewMatrix(rows, cols)
	m.RandFill(rand.New(rand.NewSource(seed)), 0, 1)
	return m
}

// TestSumRowsMatchesAccumulate: SumRows must be bit-identical to
// Zero+AccumulateRows for every active-set size straddling its 4-row
// batching (0, 1, 4, 5, 9 rows), including repeated rows.
func TestSumRowsMatchesAccumulate(t *testing.T) {
	m := randomMatrix(t, 12, 37, 1)
	for _, active := range [][]int{
		{}, {3}, {0, 5, 7, 11}, {1, 2, 3, 4, 5}, {8, 3, 3, 0, 11, 6, 2, 9, 4},
	} {
		want := NewVector(m.Cols)
		want.Fill(99) // SumRows must overwrite, not accumulate
		got := want.Copy()
		want.Zero()
		m.AccumulateRows(active, want)
		m.SumRows(active, got)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("active %v col %d: SumRows %v != Zero+AccumulateRows %v", active, j, got[j], want[j])
			}
		}
	}
}

// TestAccumulateRowsScaled: SumRowsScaled, the scaled row accumulation
// the faulted drive pass uses, overwrites out with s times the row sum.
func TestAccumulateRowsScaled(t *testing.T) {
	m := randomMatrix(t, 6, 9, 2)
	active := []int{1, 4, 4}
	out := NewVector(m.Cols)
	out.Fill(7)
	m.SumRowsScaled(active, 2, out)
	for j := 0; j < m.Cols; j++ {
		want := 2 * (m.At(1, j) + 2*m.At(4, j))
		if math.Abs(out[j]-want) > 1e-12 {
			t.Fatalf("SumRowsScaled col %d: got %v, want %v", j, out[j], want)
		}
	}
}

func TestScaleCols(t *testing.T) {
	m := randomMatrix(t, 5, 4, 5)
	orig := m.Copy()
	g := Vector{2, 1, 0.25, 4}
	m.ScaleCols(g)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != orig.At(i, j)*g[j] {
				t.Fatalf("ScaleCols mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestScatterKernels(t *testing.T) {
	x := Vector{1, 2, 3, 4}
	x.ScatterScale([]int{0, 2}, 0.5)
	want := Vector{0.5, 2, 1.5, 4}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("ScatterScale: got %v, want %v", x, want)
		}
	}
}
