package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSparseBasics(t *testing.T) {
	m, err := NewSparse(2, 3, []Entry{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.NNZ() != 3 {
		t.Fatalf("dims/nnz wrong: %dx%d nnz=%d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(1, 1) != 3 || m.At(1, 0) != 0 {
		t.Error("At wrong")
	}
}

func TestNewSparseDuplicatesSummed(t *testing.T) {
	m, err := NewSparse(1, 2, []Entry{{0, 1, 1}, {0, 1, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 || m.At(0, 1) != 3.5 {
		t.Errorf("duplicate sum: nnz=%d val=%g", m.NNZ(), m.At(0, 1))
	}
}

func TestNewSparseRangeCheck(t *testing.T) {
	if _, err := NewSparse(1, 1, []Entry{{1, 0, 1}}); err == nil {
		t.Error("accepted out-of-range row")
	}
	if _, err := NewSparse(1, 1, []Entry{{0, 1, 1}}); err == nil {
		t.Error("accepted out-of-range col")
	}
}

func TestMulVec(t *testing.T) {
	// [[1 2],[3 4]] · [1, -1] = [-1, -1]
	m, _ := NewSparse(2, 2, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, -1})
	if dst[0] != -1 || dst[1] != -1 {
		t.Errorf("MulVec = %v", dst)
	}
	dt := make([]float64, 2)
	m.MulTVec(dt, []float64{1, 1})
	if dt[0] != 4 || dt[1] != 6 {
		t.Errorf("MulTVec = %v", dt)
	}
}

func TestMulVecDimPanics(t *testing.T) {
	m, _ := NewSparse(2, 3, nil)
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong dims did not panic")
		}
	}()
	m.MulVec(make([]float64, 1), make([]float64, 3))
}

func TestPropertyMulTVecAdjoint(t *testing.T) {
	// ⟨A·x, y⟩ = ⟨x, Aᵀ·y⟩ for random sparse A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		var entries []Entry
		for i := 0; i < rng.Intn(80); i++ {
			entries = append(entries, Entry{
				Row: uint32(rng.Intn(rows)), Col: uint32(rng.Intn(cols)), Val: rng.NormFloat64(),
			})
		}
		m, err := NewSparse(rows, cols, entries)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, rows)
		m.MulVec(ax, x)
		aty := make([]float64, cols)
		m.MulTVec(aty, y)
		return math.Abs(Dot(ax, y)-Dot(x, aty)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQROrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(30, 5)
	for c := 0; c < 5; c++ {
		col := d.Col(c)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	orig := NewDense(30, 5)
	copy(orig.data, d.data)
	r := d.QR()
	// QᵀQ = I
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := Dot(d.Col(i), d.Col(j)); math.Abs(got-want) > 1e-10 {
				t.Errorf("QᵀQ[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	// Q·R = original
	for c := 0; c < 5; c++ {
		recon := make([]float64, 30)
		for i := 0; i <= c; i++ {
			AXPY(r.At(i, c), d.Col(i), recon)
		}
		for row := 0; row < 30; row++ {
			if math.Abs(recon[row]-orig.At(row, c)) > 1e-9 {
				t.Fatalf("QR reconstruction off at (%d,%d)", row, c)
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	d := NewDense(4, 2)
	for i := 0; i < 4; i++ {
		d.Set(i, 0, 1)
		d.Set(i, 1, 2) // col1 = 2·col0
	}
	r := d.QR()
	if r.At(1, 1) != 0 {
		t.Errorf("R[1,1] = %g, want 0 for dependent column", r.At(1, 1))
	}
	if Norm2(d.Col(1)) != 0 {
		t.Error("dependent column not zeroed")
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// [[2 1],[1 2]] has eigenvalues 3 and 1.
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	vals, vecs := JacobiEigen(a)
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigvals = %v, want [3 1]", vals)
	}
	// A·v = λ·v for each pair.
	for c := 0; c < 2; c++ {
		v := vecs.Col(c)
		av := []float64{2*v[0] + v[1], v[0] + 2*v[1]}
		for i := range av {
			if math.Abs(av[i]-vals[c]*v[i]) > 1e-9 {
				t.Errorf("A·v != λ·v for eigenpair %d", c)
			}
		}
	}
}

func TestJacobiEigenNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-square JacobiEigen did not panic")
		}
	}()
	JacobiEigen(NewDense(2, 3))
}

func TestPropertyJacobiEigenDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		a := NewDense(k, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := JacobiEigen(a)
		// descending order
		for i := 1; i < k; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				return false
			}
		}
		// residual ‖A·v − λ·v‖ small
		for c := 0; c < k; c++ {
			v := vecs.Col(c)
			for i := 0; i < k; i++ {
				av := 0.0
				for j := 0; j < k; j++ {
					av += a.At(i, j) * v[j]
				}
				if math.Abs(av-vals[c]*v[i]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// lowRankSparse builds an exactly rank-2 matrix σ1·u1v1ᵀ + σ2·u2v2ᵀ with
// block-indicator singular vectors.
func lowRankSparse(t *testing.T) *Sparse {
	t.Helper()
	var entries []Entry
	// block 1: rows 0..9 x cols 0..9, value 5
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			entries = append(entries, Entry{uint32(r), uint32(c), 5})
		}
	}
	// block 2: rows 10..19 x cols 10..19, value 2
	for r := 10; r < 20; r++ {
		for c := 10; c < 20; c++ {
			entries = append(entries, Entry{uint32(r), uint32(c), 2})
		}
	}
	m, err := NewSparse(20, 20, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTruncatedSVDExactRank2(t *testing.T) {
	m := lowRankSparse(t)
	res := TruncatedSVD(m, 2, 3, 42)
	// True singular values: 5·10 = 50 and 2·10 = 20 (rank-1 blocks of
	// all-ones 10x10 scaled).
	if math.Abs(res.S[0]-50) > 1e-6 || math.Abs(res.S[1]-20) > 1e-6 {
		t.Fatalf("singular values = %v, want [50 20]", res.S)
	}
	// U columns orthonormal.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := Dot(res.U.Col(i), res.U.Col(j)); math.Abs(got-want) > 1e-8 {
				t.Errorf("UᵀU[%d,%d] = %g", i, j, got)
			}
			if got := Dot(res.V.Col(i), res.V.Col(j)); math.Abs(got-want) > 1e-8 {
				t.Errorf("VᵀV[%d,%d] = %g", i, j, got)
			}
		}
	}
	// Leading left singular vector supported on rows 0..9.
	u0 := res.U.Col(0)
	for r := 10; r < 20; r++ {
		if math.Abs(u0[r]) > 1e-6 {
			t.Errorf("u1[%d] = %g, want 0", r, u0[r])
		}
	}
}

func TestTruncatedSVDReconstruction(t *testing.T) {
	m := lowRankSparse(t)
	res := TruncatedSVD(m, 2, 3, 7)
	// Rank-2 truncation of an exactly rank-2 matrix reconstructs it.
	for r := 0; r < 20; r += 3 {
		for c := 0; c < 20; c += 3 {
			recon := 0.0
			for i := 0; i < 2; i++ {
				recon += res.S[i] * res.U.At(r, i) * res.V.At(c, i)
			}
			if math.Abs(recon-m.At(r, c)) > 1e-6 {
				t.Fatalf("recon(%d,%d) = %g, want %g", r, c, recon, m.At(r, c))
			}
		}
	}
}

func TestTruncatedSVDDeterministic(t *testing.T) {
	m := lowRankSparse(t)
	a := TruncatedSVD(m, 2, 2, 9)
	b := TruncatedSVD(m, 2, 2, 9)
	for i := range a.S {
		if a.S[i] != b.S[i] {
			t.Error("SVD not deterministic for fixed seed")
		}
	}
}

func TestTruncatedSVDClampsK(t *testing.T) {
	m, _ := NewSparse(3, 2, []Entry{{0, 0, 1}, {1, 1, 1}})
	res := TruncatedSVD(m, 10, 2, 1)
	if res.Rank() != 2 {
		t.Errorf("rank = %d, want 2 (clamped)", res.Rank())
	}
}

func TestTruncatedSVDEmptyMatrix(t *testing.T) {
	m, _ := NewSparse(4, 4, nil)
	res := TruncatedSVD(m, 2, 2, 1)
	for _, s := range res.S {
		if s != 0 {
			t.Errorf("zero matrix has σ=%g", s)
		}
	}
}

func TestReconstructedRowNorm(t *testing.T) {
	m := lowRankSparse(t)
	res := TruncatedSVD(m, 2, 3, 3)
	// Row 0 has true norm sqrt(10·25) = sqrt(250); exact-rank recon equals it.
	want := m.RowNorm2(0)
	if got := res.ReconstructedRowNorm(0); math.Abs(got-want) > 1e-6 {
		t.Errorf("ReconstructedRowNorm(0) = %g, want %g", got, want)
	}
}

func TestPropertySingularValuesDecreasing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 5+rng.Intn(20), 5+rng.Intn(20)
		var entries []Entry
		for i := 0; i < 30+rng.Intn(100); i++ {
			entries = append(entries, Entry{
				Row: uint32(rng.Intn(rows)), Col: uint32(rng.Intn(cols)), Val: rng.Float64(),
			})
		}
		m, err := NewSparse(rows, cols, entries)
		if err != nil {
			return false
		}
		res := TruncatedSVD(m, 4, 2, seed)
		for i := 1; i < len(res.S); i++ {
			if res.S[i] > res.S[i-1]+1e-8 {
				return false
			}
			if res.S[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDenseHelpers(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 {
		t.Error("Set/At")
	}
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Error("Norm2")
	}
	y := []float64{1, 1}
	AXPY(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Error("AXPY")
	}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Error("Scale")
	}
}
