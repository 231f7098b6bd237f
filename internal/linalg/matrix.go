// Package linalg implements the dense linear algebra the anomaly
// detector needs: matrices with parallel blocked multiplication,
// covariance estimation, symmetric eigendecomposition (cyclic Jacobi)
// and singular value decomposition.
//
// The paper's offline trainer computes, per unit, the covariance matrix
// of the sensor streams and then an SVD of that covariance; the online
// evaluator is "a single matrix multiplication per iteration". Both hot
// paths live here. Matrices are row-major float64 with no external
// dependencies.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// non-positive dimensions, which are programming errors.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrShape
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Reset reshapes m to rows×cols, reusing the Data backing array when its
// capacity suffices. The contents after Reset are undefined; callers are
// expected to overwrite every element (as MulInto does). It panics on
// non-positive dimensions, matching NewMatrix.
func (m *Matrix) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) (*Matrix, error) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] += v
	}
	return out, nil
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) (*Matrix, error) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns m·other using a cache-blocked, goroutine-parallel kernel.
// Row blocks are distributed over GOMAXPROCS workers; the inner loops
// use the ikj ordering so the innermost loop streams both operands.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	mulInto(out, m, other)
	return out, nil
}

// mulInto computes out = a·b, parallelizing across row stripes when the
// work is large enough to amortize the hand-off.
func mulInto(out, a, b *Matrix) {
	var left atomic.Int32
	fanOut(a.Rows, mulStripes(a, b), &mulJob{out: out, a: a, b: b}, &left)
}

// mulJob is Mul's kernel over a row stripe.
type mulJob struct{ out, a, b *Matrix }

func (j *mulJob) rows(_, lo, hi int) { mulRange(j.out, j.a, j.b, lo, hi) }

// parallelFlopsMin is the work size below which row-striped kernels run
// inline: under it, handing stripes to workers costs more than it saves.
const parallelFlopsMin = 1 << 17

// mulStripes returns how many row stripes a·b runs in: one per P, or
// one (inline) when the product is too small to amortize the hand-off.
func mulStripes(a, b *Matrix) int {
	if float64(a.Rows)*float64(a.Cols)*float64(b.Cols) < parallelFlopsMin {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// stripeKernel computes rows [lo, hi) of a row-striped result; w is the
// stripe's index, for kernels that keep per-stripe accumulators.
type stripeKernel interface {
	rows(w, lo, hi int)
}

// stripe is one row range of a fan-out, handed to a stripe worker;
// left counts the fan-out's stripes still running.
type stripe struct {
	k         stripeKernel
	w, lo, hi int
	left      *atomic.Int32
}

func (s stripe) run() {
	s.k.rows(s.w, s.lo, s.hi)
	s.left.Add(-1)
}

// stripeWorkers is the package's pool of fan-out workers. A fan-out
// hands stripes over a channel instead of starting goroutines: a go
// statement allocates a closure for its arguments, and a new goroutine
// allocates when the free list it draws from sits on another P, so
// spawning per product could not be allocation-free. Like the
// runtime's own background workers, they live for the process: there
// are at most GOMAXPROCS-1 of them (unless GOMAXPROCS shrinks), and an
// idle one is a goroutine parked on the queue.
var stripeWorkers struct {
	mu    sync.Mutex
	n     int
	queue chan stripe
}

// fanOut runs k over stripes equal row stripes of [0, n) (capped at n)
// and returns when all are done: the last stripe runs on the calling
// goroutine, the others on stripe workers. left must be zero and not
// in use by another fan-out. A kernel held by pointer and a counter
// owned by a reused scratch make a steady-state fan-out
// allocation-free.
//
// While its stripes are out, the caller runs queued stripes (its own
// or another fan-out's) and otherwise yields; it never parks. A parked
// goroutine takes a wait record from its P's cache and allocates one
// whenever it last woke on another P. The wait is short, since the
// caller has just run a stripe of the same size.
func fanOut(n, stripes int, k stripeKernel, left *atomic.Int32) {
	stripes = min(stripes, n)
	if stripes < 2 {
		k.rows(0, 0, n)
		return
	}
	startStripeWorkers(stripes - 1)
	chunk := (n + stripes - 1) / stripes
	last := 0
	for w := 0; (w+1)*chunk < n; w++ {
		left.Add(1)
		stripeWorkers.queue <- stripe{k: k, w: w, lo: w * chunk, hi: (w + 1) * chunk, left: left}
		last = w + 1
	}
	k.rows(last, last*chunk, n)
	for left.Load() > 0 {
		select {
		case s := <-stripeWorkers.queue:
			s.run()
		default:
			runtime.Gosched()
		}
	}
}

// startStripeWorkers grows the worker pool to at least n goroutines.
func startStripeWorkers(n int) {
	stripeWorkers.mu.Lock()
	defer stripeWorkers.mu.Unlock()
	if stripeWorkers.queue == nil {
		// Buffered so a fan-out hands off its stripes without waiting
		// for a free worker; 64 holds the stripes of several
		// concurrent fan-outs, and a full queue only makes senders wait.
		stripeWorkers.queue = make(chan stripe, 64)
	}
	for ; stripeWorkers.n < n; stripeWorkers.n++ {
		go runStripes(stripeWorkers.queue)
	}
}

func runStripes(queue <-chan stripe) {
	for s := range queue {
		s.run()
	}
}

// MulScratch holds the reusable packed operand buffer for MulInto and
// the operands of the product in flight, which its row stripes read.
// The zero value is ready to use; buffers grow on demand and are
// retained between calls, so a long-lived scratch makes repeated
// products with the same shapes allocation-free, serial or parallel.
// A MulScratch must not be copied after first use.
type MulScratch struct {
	pack []float64 // column-major packed copy of the right operand
	dst  *Matrix
	a    *Matrix
	left atomic.Int32
}

func (s *MulScratch) rows(_, lo, hi int) {
	mulPackedRange(s.dst, s.a, s.pack, s.a.Cols, s.dst.Cols, lo, hi)
}

// mulScratchPool serves MulInto callers that pass a nil scratch.
var mulScratchPool = sync.Pool{New: func() any { return new(MulScratch) }}

// MulInto computes dst = a·b without allocating: dst must already have
// shape a.Rows×b.Cols (use Reset to recycle a buffer) and must not
// alias a or b. The right operand is packed into a column-major panel
// held by scr — cutting cache misses on the tall-thin d×K operand the
// evaluator multiplies by every tick — and the row stripes run in
// parallel exactly like Mul. A nil scr uses an internal pool.
//
// The packed kernel accumulates each output element in the same index
// order as Mul, so results are bit-identical to Mul's for finite
// inputs. (Mul's kernel skips zero left-operand terms, so the two can
// differ only when a zero multiplies a non-finite value.)
func MulInto(dst, a, b *Matrix, scr *MulScratch) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("%w: dst is %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	if scr == nil {
		s := mulScratchPool.Get().(*MulScratch)
		defer mulScratchPool.Put(s)
		scr = s
	}
	k, p := a.Cols, b.Cols
	if cap(scr.pack) < k*p {
		scr.pack = make([]float64, k*p)
	}
	pack := scr.pack[:k*p]
	// Pack b column-major: pack[j*k+l] = b[l][j]. Each column of b
	// becomes one contiguous run the dot kernel streams sequentially.
	for l := 0; l < k; l++ {
		brow := b.Data[l*p : (l+1)*p]
		for j, v := range brow {
			pack[j*k+l] = v
		}
	}
	scr.dst, scr.a = dst, a
	fanOut(a.Rows, mulStripes(a, b), scr, &scr.left)
	scr.dst, scr.a = nil, nil
	return nil
}

// mulPackedRange computes rows [lo,hi) of dst = a·b from the packed
// column-major copy of b, four output columns at a time so one pass
// over the a-row feeds four independent accumulator chains.
func mulPackedRange(dst, a *Matrix, pack []float64, k, p, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*p : (i+1)*p]
		j := 0
		for ; j+4 <= p; j += 4 {
			b0 := pack[j*k : (j+1)*k]
			b1 := pack[(j+1)*k : (j+2)*k]
			b2 := pack[(j+2)*k : (j+3)*k]
			b3 := pack[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for l, av := range arow {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < p; j++ {
			bcol := pack[j*k : (j+1)*k]
			var s float64
			for l, av := range arow {
				s += av * bcol[l]
			}
			orow[j] = s
		}
	}
}

// SubVecInto fills dst[i] = a[i] - b[i] in one pass. dst may alias a or
// b; all three must share the same length. Empty input is a no-op.
func SubVecInto(dst, a, b []float64) {
	if len(a) == 0 {
		return
	}
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i, av := range a {
		dst[i] = av - b[i]
	}
}

// mulRange computes rows [lo,hi) of out = a·b with ikj ordering.
func mulRange(out, a, b *Matrix, lo, hi int) {
	k, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*p : (i+1)*p]
		for x := range orow {
			orow[x] = 0
		}
		for l := 0; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*p : (l+1)*p]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulVec returns m·v for a vector v of length m.Cols.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.Cols {
		return nil, ErrShape
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 { return Norm2(m.Data) }

// MaxAbsDiff returns max |m_ij - other_ij|; +Inf on shape mismatch.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range m.Data {
		d := math.Abs(v - other.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	return m.MaxAbsDiff(other) <= tol
}

// String renders the matrix for debugging (rows on lines, %.4g).
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ColumnMeans returns the mean of each column of m.
func (m *Matrix) ColumnMeans() []float64 {
	mu := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			mu[j] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range mu {
		mu[j] *= inv
	}
	return mu
}

// Covariance returns the unbiased sample covariance matrix (Cols×Cols)
// of the observations in m, one observation per row, along with the
// column means. It needs at least two rows.
func (m *Matrix) Covariance() (*Matrix, []float64, error) {
	if m.Rows < 2 {
		return nil, nil, fmt.Errorf("%w: covariance needs ≥2 rows, have %d", ErrShape, m.Rows)
	}
	mu := m.ColumnMeans()
	d := m.Cols
	cov := NewMatrix(d, d)
	// Accumulate centered outer products in parallel over row stripes,
	// each stripe into a private accumulator, then reduce.
	stripes := runtime.GOMAXPROCS(0)
	if d*d*m.Rows < 1<<15 {
		stripes = 1
	}
	job := &covJob{m: m, mu: mu, accs: make([][]float64, min(stripes, m.Rows))}
	var left atomic.Int32
	fanOut(m.Rows, stripes, job, &left)
	inv := 1 / float64(m.Rows-1)
	for _, acc := range job.accs {
		if acc == nil {
			continue
		}
		for i := range acc {
			cov.Data[i] += acc[i]
		}
	}
	for j := 0; j < d; j++ {
		for l := j; l < d; l++ {
			v := cov.Data[j*d+l] * inv
			cov.Data[j*d+l] = v
			cov.Data[l*d+j] = v
		}
	}
	return cov, mu, nil
}

// covJob is Covariance's kernel: stripe w accumulates the upper
// triangle of its rows' centered outer products into accs[w].
type covJob struct {
	m    *Matrix
	mu   []float64
	accs [][]float64
}

func (j *covJob) rows(w, lo, hi int) {
	d := j.m.Cols
	acc := make([]float64, d*d)
	cen := make([]float64, d)
	for i := lo; i < hi; i++ {
		row := j.m.Row(i)
		for l := range cen {
			cen[l] = row[l] - j.mu[l]
		}
		for r := 0; r < d; r++ {
			cr := cen[r]
			if cr == 0 {
				continue
			}
			arow := acc[r*d : (r+1)*d]
			// Symmetric: accumulate the upper triangle only.
			for l := r; l < d; l++ {
				arow[l] += cr * cen[l]
			}
		}
	}
	j.accs[w] = acc
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}
