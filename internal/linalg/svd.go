package linalg

import "math/rand"

// SVDResult holds a rank-k truncated singular value decomposition
// A ≈ U·diag(S)·Vᵀ with U (rows×k) and V (cols×k) having orthonormal
// columns and S in descending order.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// TruncatedSVD computes a rank-k truncated SVD of A with randomized subspace
// iteration (Halko-Martinsson-Tropp): sketch Y = A·Ω, power-iterate
// (AAᵀ)^q with QR re-orthonormalization between applications, then solve the
// small projected problem exactly via a symmetric Jacobi eigensolver on
// B·Bᵀ where B = Qᵀ·A.
//
// iters is the number of power iterations q (2-4 suffices for the sharply
// decaying spectra of fraud graphs). The decomposition is deterministic for
// a fixed seed. k is clamped to min(rows, cols).
func TruncatedSVD(a *Sparse, k, iters int, seed int64) SVDResult {
	rows, cols := a.Rows(), a.Cols()
	if k > rows {
		k = rows
	}
	if k > cols {
		k = cols
	}
	if k <= 0 || a.NNZ() == 0 {
		return SVDResult{U: NewDense(rows, maxInt(k, 0)), S: make([]float64, maxInt(k, 0)), V: NewDense(cols, maxInt(k, 0))}
	}
	// Oversample for accuracy of the leading k triplets.
	p := k + minInt(10, k)
	if p > rows {
		p = rows
	}
	if p > cols {
		p = cols
	}

	rng := rand.New(rand.NewSource(seed))
	// Sketch: Y = A·Ω, Ω gaussian cols×p.
	q := NewDense(rows, p)
	omega := make([]float64, cols)
	for j := 0; j < p; j++ {
		for i := range omega {
			omega[i] = rng.NormFloat64()
		}
		a.MulVec(q.Col(j), omega)
	}
	q.QR()

	// Power iterations with re-orthonormalization.
	z := NewDense(cols, p)
	for it := 0; it < iters; it++ {
		for j := 0; j < p; j++ {
			a.MulTVec(z.Col(j), q.Col(j))
		}
		z.QR()
		for j := 0; j < p; j++ {
			a.MulVec(q.Col(j), z.Col(j))
		}
		q.QR()
	}

	// B = Qᵀ·A, stored transposed: bt (cols×p) with bt[:,j] = Aᵀ·q_j.
	bt := NewDense(cols, p)
	for j := 0; j < p; j++ {
		a.MulTVec(bt.Col(j), q.Col(j))
	}

	// Small symmetric problem: G = B·Bᵀ = btᵀ·bt (p×p), G = W Λ Wᵀ,
	// σ_i = sqrt(λ_i), U = Q·W, V = Bᵀ·W·Σ⁻¹.
	g := NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := i; j < p; j++ {
			v := Dot(bt.Col(i), bt.Col(j))
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	lam, w := JacobiEigen(g)

	res := SVDResult{U: NewDense(rows, k), S: make([]float64, k), V: NewDense(cols, k)}
	for c := 0; c < k; c++ {
		l := lam[c]
		if l < 0 {
			l = 0
		}
		sigma := sqrt(l)
		res.S[c] = sigma
		uc := res.U.Col(c)
		for i := 0; i < p; i++ {
			AXPY(w.At(i, c), q.Col(i), uc)
		}
		vc := res.V.Col(c)
		for i := 0; i < p; i++ {
			AXPY(w.At(i, c), bt.Col(i), vc)
		}
		if sigma > 1e-12 {
			Scale(1/sigma, vc)
		} else {
			for i := range vc {
				vc[i] = 0
			}
		}
	}
	return res
}

// ReconstructedRowNorm returns, for each row r of A, the Euclidean norm of
// the projection of that row onto the top-k right singular subspace:
// ‖Σ_i σ_i·U[r,i]·V[:,i]‖₂ = ‖(σ_i·U[r,i])_i‖₂ (V's columns are
// orthonormal). FBOX compares this against the true row norm.
func (s SVDResult) ReconstructedRowNorm(r int) float64 {
	acc := 0.0
	for c := 0; c < len(s.S); c++ {
		t := s.S[c] * s.U.At(r, c)
		acc += t * t
	}
	return sqrt(acc)
}

// Rank returns the number of retained singular triplets.
func (s SVDResult) Rank() int { return len(s.S) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
