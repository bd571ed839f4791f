package work

import (
	"math"
	"slices"
)

// CostMiss tallies the paper's §3 metrics over warm requests: a key's first
// reference is a cold miss any policy pays, so it is excluded, as campload
// excludes it.
type CostMiss struct {
	WarmHits, WarmMisses int64
	MissCost, TotalCost  int64
}

// Add records one request; warm is false for the key's first reference.
func (c *CostMiss) Add(warm, hit bool, cost int64) {
	if !warm {
		return
	}
	c.TotalCost += cost
	if hit {
		c.WarmHits++
		return
	}
	c.WarmMisses++
	c.MissCost += cost
}

// Merge adds o's tallies into c.
func (c *CostMiss) Merge(o CostMiss) {
	c.WarmHits += o.WarmHits
	c.WarmMisses += o.WarmMisses
	c.MissCost += o.MissCost
	c.TotalCost += o.TotalCost
}

// MissRatio is warm misses over warm requests.
func (c CostMiss) MissRatio() float64 {
	return ratio(float64(c.WarmMisses), float64(c.WarmHits+c.WarmMisses))
}

// CostMissRatio is the cost of warm misses over the cost of warm requests.
func (c CostMiss) CostMissRatio() float64 {
	return ratio(float64(c.MissCost), float64(c.TotalCost))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Quantile returns the nearest-rank q-quantile of sorted and how many
// samples lie beyond it. The benchmark reports a percentile only with at
// least ten samples beyond it.
func Quantile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return sorted[i], n - 1 - i
}

// Median returns the median of xs (the mean of the middle pair for an even
// count), leaving xs sorted.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
