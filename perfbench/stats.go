package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median returns the 0.5-quantile of xs (sorting xs in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time interval [start, end) in run time.
type interval struct{ start, end time.Duration }

func (iv interval) len() time.Duration {
	if iv.end <= iv.start {
		return 0
	}
	return iv.end - iv.start
}

// clip returns iv cut to within bound.
func (iv interval) clip(bound interval) interval {
	if iv.start < bound.start {
		iv.start = bound.start
	}
	if iv.end > bound.end {
		iv.end = bound.end
	}
	return iv
}

// unionLen returns the total length covered by ivs (sorting ivs in
// place).
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.len() == 0 {
			continue
		}
		if !open {
			cur, open = iv, true
			continue
		}
		if iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		total += cur.len()
		cur = iv
	}
	if open {
		total += cur.len()
	}
	return total
}
