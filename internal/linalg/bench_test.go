package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatrixMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 256, 512} {
		x := randMatrix(rng, n, n)
		y := randMatrix(rng, n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := x.Mul(y); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkCovariance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 2048, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Covariance(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{32, 128, 512, 1000} {
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := EigenSym(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSVDCovariancePath(b *testing.B) {
	// The trainer's shape: tall data matrix → thin SVD.
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 512, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulInto measures the packed in-place multiply on the
// evaluator's tall-thin shape (batch×sensors · sensors×K) against a
// scratch warmed before the timer starts: steady state is
// allocation-free, serial or parallel.
func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][3]int{{64, 100, 10}, {64, 1000, 10}, {256, 256, 256}} {
		n, k, p := shape[0], shape[1], shape[2]
		x := randMatrix(rng, n, k)
		y := randMatrix(rng, k, p)
		dst := NewMatrix(n, p)
		var scr MulScratch
		b.Run(fmt.Sprintf("%dx%dx%d", n, k, p), func(b *testing.B) {
			if err := MulInto(dst, x, y, &scr); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MulInto(dst, x, y, &scr); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(n) * float64(k) * float64(p)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
