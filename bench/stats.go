//go:build linux

package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest sample with at least p of the samples at or below it.
// With fewer than 1/(1-p) samples that is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first, second and third quartiles of xs by the
// same "exclusive" interpolation Python's statistics.quantiles(xs, n=4)
// uses, so spreads printed here match the ones the bounds were set from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// splitLines returns the non-empty lines of b.
func splitLines(b []byte) []string {
	var out []string
	for _, l := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
