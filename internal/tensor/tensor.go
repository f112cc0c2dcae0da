// Package tensor provides the small dense linear-algebra substrate used
// by the SNN simulator: float64 vectors and row-major matrices with the
// handful of operations spiking-network training needs (masked
// accumulation, outer-product updates, row/column reductions).
//
// It is deliberately minimal — no views, no broadcasting — so that every
// operation is obvious and allocation-free in the hot path.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Fill sets every element to v.
func (x Vector) Fill(v float64) {
	for i := range x {
		x[i] = v
	}
}

// Copy returns a deep copy of x.
func (x Vector) Copy() Vector {
	y := make(Vector, len(x))
	copy(y, x)
	return y
}

// Add adds y into x element-wise. Panics if lengths differ.
func (x Vector) Add(y Vector) {
	checkLen(len(x), len(y))
	for i := range x {
		x[i] += y[i]
	}
}

// Scale multiplies every element by s, four elements per iteration
// (independent per-element products, so the unroll is bit-identical to
// the scalar loop while exposing instruction-level parallelism).
func (x Vector) Scale(s float64) {
	i := 0
	for ; i+3 < len(x); i += 4 {
		x[i] *= s
		x[i+1] *= s
		x[i+2] *= s
		x[i+3] *= s
	}
	for ; i < len(x); i++ {
		x[i] *= s
	}
}

// DecayToward relaxes every element exponentially toward target:
// x[i] = target + (x[i]−target)·decay. This is the LIF membrane decay
// kernel; like Scale it processes four independent elements per
// iteration, bit-identical to the scalar form.
func (x Vector) DecayToward(target, decay float64) {
	i := 0
	for ; i+3 < len(x); i += 4 {
		x[i] = target + (x[i]-target)*decay
		x[i+1] = target + (x[i+1]-target)*decay
		x[i+2] = target + (x[i+2]-target)*decay
		x[i+3] = target + (x[i+3]-target)*decay
	}
	for ; i < len(x); i++ {
		x[i] = target + (x[i]-target)*decay
	}
}

// Sum returns the sum of all elements.
func (x Vector) Sum() float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Zero sets every element to 0.
func (x Vector) Zero() { x.Fill(0) }

// ScatterScale multiplies the elements at idx by s, leaving the rest
// untouched. The sparse-trace decay kernel: when the nonzero support of
// x is tracked externally, decaying only the support is bit-identical
// to a dense Scale (zero times s is zero).
func (x Vector) ScatterScale(idx []int, s float64) {
	for _, i := range idx {
		x[i] *= s
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Copy returns a deep copy of m.
func (m *Matrix) Copy() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// AccumulateRows adds row i of m into out for every index i in active
// (the indices of presynaptic neurons that spiked this step). It is the
// plain reference form of SumRows, which the engine's drive pass uses.
func (m *Matrix) AccumulateRows(active []int, out Vector) {
	checkLen(len(out), m.Cols)
	for _, i := range active {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		o := out[:len(row)] // bounds-check elimination in the inner loop
		for j, w := range row {
			o[j] += w
		}
	}
}

// SumRows overwrites out with the sum of the active rows of m (zeroing
// out when active is empty). It is bit-identical to Zero followed by
// AccumulateRows — the accumulation order is the same left-to-right row
// order — but saves the zeroing pass and batches four rows per sweep of
// out, quartering the load/store traffic on the accumulator.
func (m *Matrix) SumRows(active []int, out Vector) {
	checkLen(len(out), m.Cols)
	if len(active) == 0 {
		out.Zero()
		return
	}
	c := m.Cols
	o := out[:c]
	copy(o, m.Data[active[0]*c:active[0]*c+c])
	k := 1
	for ; k+3 < len(active); k += 4 {
		r1 := m.Data[active[k]*c : active[k]*c+c]
		r2 := m.Data[active[k+1]*c : active[k+1]*c+c]
		r3 := m.Data[active[k+2]*c : active[k+2]*c+c]
		r4 := m.Data[active[k+3]*c : active[k+3]*c+c]
		r1, r2, r3, r4 = r1[:len(o)], r2[:len(o)], r3[:len(o)], r4[:len(o)]
		for j := range o {
			o[j] = (((o[j] + r1[j]) + r2[j]) + r3[j]) + r4[j]
		}
	}
	for ; k < len(active); k++ {
		r := m.Data[active[k]*c : active[k]*c+c]
		r = r[:len(o)]
		for j := range o {
			o[j] += r[j]
		}
	}
}

// SumRowsScaled overwrites out with s times the sum of the active rows
// of m, scaling each row as it is accumulated (out[j] = Σ s·row[j]),
// with the same left-to-right order and 4-row batching as SumRows.
func (m *Matrix) SumRowsScaled(active []int, s float64, out Vector) {
	checkLen(len(out), m.Cols)
	if len(active) == 0 {
		out.Zero()
		return
	}
	c := m.Cols
	o := out[:c]
	r0 := m.Data[active[0]*c : active[0]*c+c]
	r0 = r0[:len(o)]
	for j := range o {
		o[j] = s * r0[j]
	}
	k := 1
	for ; k+3 < len(active); k += 4 {
		r1 := m.Data[active[k]*c : active[k]*c+c]
		r2 := m.Data[active[k+1]*c : active[k+1]*c+c]
		r3 := m.Data[active[k+2]*c : active[k+2]*c+c]
		r4 := m.Data[active[k+3]*c : active[k+3]*c+c]
		r1, r2, r3, r4 = r1[:len(o)], r2[:len(o)], r3[:len(o)], r4[:len(o)]
		for j := range o {
			o[j] = (((o[j] + s*r1[j]) + s*r2[j]) + s*r3[j]) + s*r4[j]
		}
	}
	for ; k < len(active); k++ {
		r := m.Data[active[k]*c : active[k]*c+c]
		r = r[:len(o)]
		for j := range o {
			o[j] += s * r[j]
		}
	}
}

// ColSum returns the per-column sums of m.
func (m *Matrix) ColSum() Vector {
	s := NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			s[j] += w
		}
	}
	return s
}

// ScaleCols multiplies every element of column j by f[j], in one
// contiguous row-major pass.
func (m *Matrix) ScaleCols(f Vector) {
	checkLen(len(f), m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		ff := f[:len(row)]
		for j := range row {
			row[j] *= ff[j]
		}
	}
}

// NormalizeCols rescales each column so its sum equals target. Columns
// whose sum is zero are left untouched. This is the Diehl&Cook weight
// normalization applied to the input→excitatory connection. The rescale
// runs as one contiguous row-major ScaleCols pass over a per-column
// factor vector (factor 1 for zero-sum columns) — bit-identical to the
// column-at-a-time strided form, since x·1 == x for every float
// including NaN and −0, but ~Rows× fewer cache lines touched.
func (m *Matrix) NormalizeCols(target float64) {
	f := m.ColSum()
	for j, s := range f {
		if s == 0 {
			f[j] = 1
		} else {
			f[j] = target / s
		}
	}
	m.ScaleCols(f)
}

// NormalizeColsSubset rescales only the listed columns so each sums to
// target, leaving every other column untouched; zero-sum columns in the
// list are also left untouched. Each column's sum accumulates over its
// elements in ascending row order — the same per-column order ColSum
// uses — so for a listed column the factor, and hence the rescaled
// values, are bit-identical to a full NormalizeCols. Columns are
// independent, so the result does not depend on the order of cols.
// This is the dirty-column form of Diehl&Cook normalization: between
// two normalizations STDP touches only the columns of neurons that
// spiked, so only those columns have drifted from target.
func (m *Matrix) NormalizeColsSubset(target float64, cols []int) {
	r, c := m.Rows, m.Cols
	for _, j := range cols {
		var s float64
		for i := 0; i < r; i++ {
			s += m.Data[i*c+j]
		}
		if s == 0 {
			continue
		}
		f := target / s
		for i := 0; i < r; i++ {
			m.Data[i*c+j] *= f
		}
	}
}

// RandFill fills m with uniform values in [lo, hi) drawn from rng.
func (m *Matrix) RandFill(rng *rand.Rand, lo, hi float64) {
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// Equal reports whether two matrices have the same shape and elements
// within tolerance tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
