package main

import (
	"time"

	"golatest/internal/stats"
)

// median and quantile are internal/stats' type-7 quantiles; 0 for no
// samples, so a metric is never NaN in the JSON.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// scale returns xs multiplied by k (seconds to milliseconds: k = 1000).
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
