package main

import (
	"math"
	"sort"
)

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs: the mean
// of every order statistic, weighted by the mass the Beta((n+1)q, (n+1)(1-q))
// distribution puts on its slot [(i-1)/n, i/n). A nearest-rank percentile
// reads one operation. Where that rank falls between two clusters of
// operations, the seed decides which cluster it reads: online-repair's p95
// rank lies just past its nine slowest events. This estimate averages the
// operations around the rank, so it moves smoothly with the data.
func hdQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cum := regIncBeta(a, b, float64(i+1)/n)
		est += (cum - prev) * x
		prev = cum
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4, which converges fast on the
// side of the distribution's mean it is evaluated on.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}
