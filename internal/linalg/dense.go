package linalg

import (
	"fmt"
	"math"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Dense is a column-major dense matrix; columns are the natural unit for the
// block iterations used by the truncated SVD.
type Dense struct {
	RowsN, ColsN int
	data         []float64 // column-major: element (r,c) at data[c*RowsN+r]
}

// NewDense allocates a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{RowsN: rows, ColsN: cols, data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (d *Dense) At(r, c int) float64 { return d.data[c*d.RowsN+r] }

// Set assigns element (r, c).
func (d *Dense) Set(r, c int, v float64) { d.data[c*d.RowsN+r] = v }

// Col returns column c as a shared slice.
func (d *Dense) Col(c int) []float64 { return d.data[c*d.RowsN : (c+1)*d.RowsN] }

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return sqrt(Dot(x, x)) }

// AXPY computes y += a·x.
func AXPY(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// QR orthonormalizes the columns of d in place with modified Gram-Schmidt and
// one re-orthogonalization pass, returning the k×k upper-triangular R.
// Columns whose residual norm collapses below tol·(initial norm) are zeroed
// and get a zero diagonal in R — callers treating d as an orthonormal basis
// should check R's diagonal for rank deficiency.
func (d *Dense) QR() *Dense {
	k := d.ColsN
	r := NewDense(k, k)
	const tol = 1e-12
	for j := 0; j < k; j++ {
		cj := d.Col(j)
		orig := Norm2(cj)
		// two MGS passes for numerical robustness; R accumulates both
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				ci := d.Col(i)
				proj := Dot(ci, cj)
				r.Set(i, j, r.At(i, j)+proj)
				AXPY(-proj, ci, cj)
			}
		}
		n := Norm2(cj)
		if orig > 0 && n > tol*orig && n > 0 {
			r.Set(j, j, n)
			Scale(1/n, cj)
		} else {
			r.Set(j, j, 0)
			for i := range cj {
				cj[i] = 0
			}
		}
	}
	return r
}

// JacobiEigen computes the eigendecomposition of a symmetric k×k matrix A
// (passed as a Dense, only the provided values are used; symmetry is
// assumed): A = V Λ Vᵀ. It returns eigenvalues in descending order with the
// matching eigenvector columns. Cyclic Jacobi with a fixed sweep budget; k
// is small (tens) in all callers.
func JacobiEigen(a *Dense) (eigvals []float64, eigvecs *Dense) {
	k := a.RowsN
	if a.ColsN != k {
		panic(fmt.Sprintf("linalg: JacobiEigen needs square input, got %dx%d", a.RowsN, a.ColsN))
	}
	// working copy
	m := NewDense(k, k)
	copy(m.data, a.data)
	v := NewDense(k, k)
	for i := 0; i < k; i++ {
		v.Set(i, i, 1)
	}
	fro := 0.0
	for i := range m.data {
		fro += m.data[i] * m.data[i]
	}
	// Converge the off-diagonal mass to machine-precision level relative to
	// the matrix scale; eigvec residuals end up ~sqrt(eps).
	eps := 1e-24 * (fro + 1)
	const sweeps = 100
	for s := 0; s < sweeps; s++ {
		off := 0.0
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				off += m.At(p, q) * m.At(p, q)
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				apq := m.At(p, q)
				if apq*apq < eps/float64(k*k+1) {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				// rotate rows/cols p, q of m
				for i := 0; i < k; i++ {
					mip, miq := m.At(i, p), m.At(i, q)
					m.Set(i, p, c*mip-sn*miq)
					m.Set(i, q, sn*mip+c*miq)
				}
				for i := 0; i < k; i++ {
					mpi, mqi := m.At(p, i), m.At(q, i)
					m.Set(p, i, c*mpi-sn*mqi)
					m.Set(q, i, sn*mpi+c*mqi)
				}
				for i := 0; i < k; i++ {
					vip, viq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vip-sn*viq)
					v.Set(i, q, sn*vip+c*viq)
				}
			}
		}
	}
	// extract and sort descending
	type ev struct {
		val float64
		idx int
	}
	order := make([]ev, k)
	for i := 0; i < k; i++ {
		order[i] = ev{m.At(i, i), i}
	}
	for i := 1; i < len(order); i++ { // insertion sort, k is tiny
		for j := i; j > 0 && order[j].val > order[j-1].val; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	eigvals = make([]float64, k)
	eigvecs = NewDense(k, k)
	for c, o := range order {
		eigvals[c] = o.val
		copy(eigvecs.Col(c), v.Col(o.idx))
	}
	return eigvals, eigvecs
}
