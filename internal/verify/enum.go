package verify

import (
	"math"
	"math/bits"
)

// The pattern enumeration is the DFS pre-order of the tree whose nodes are
// the flip sets of size 0..k over n fault sites, children in increasing
// site order: a node p has a child p+{i} for every site i after p's last.
// Pattern index j is the (j+1)-th node of that order (the empty root is
// not a pattern). This file ranks the order without walking it: a subtree
// is skipped by its size, so reaching any index costs O(n + k), and a
// successor function steps from one pattern to the next in O(k).

// binomial returns C(n, k), or ok=false when it does not fit in an int.
// Each step multiplies into 128 bits before dividing, so an intermediate
// never overflows; with k folded to at most n/2 the intermediates
// C(n, i) grow monotonically, so they fit whenever the result does.
func binomial(n, k int) (int, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	k = min(k, n-k)
	c := uint64(1)
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-i))
		d := uint64(i + 1)
		if hi >= d {
			return 0, false
		}
		c, _ = bits.Div64(hi, lo, d)
		if c > math.MaxInt {
			return 0, false
		}
	}
	return int(c), true
}

// subtree counts the nodes in the subtree of a node with m sites left to
// choose from and r more flips allowed, the node itself included:
// sum_{j=0..r} C(m, j). ok is false when the count does not fit in an int.
func subtree(m, r int) (int, bool) {
	total := 0
	for j := 0; j <= r && j <= m; j++ {
		c, ok := binomial(m, j)
		if !ok || total > math.MaxInt-c {
			return 0, false
		}
		total += c
	}
	return total, true
}

// patternSpace returns the number of patterns of 1..k flips over n sites,
// or ok=false when it does not fit in an int.
func patternSpace(n, k int) (int, bool) {
	total, ok := subtree(n, k)
	return total - 1, ok
}

// unrank writes the site indices of the pattern with index idx into p.
// idx must lie in [0, patternSpace(n, k)); every subtree it sizes is then
// part of that space and fits in an int.
func unrank(p []int, n, k, idx int) []int {
	p = p[:0]
	start, remaining := 0, k
	for {
		for i := start; i < n; i++ {
			size, _ := subtree(n-i-1, remaining-1)
			if idx < size {
				p = append(p, i)
				if idx == 0 {
					return p
				}
				idx--
				start, remaining = i+1, remaining-1
				break
			}
			idx -= size
		}
	}
}

// next steps p to the following pattern in the enumeration over n sites
// with at most k flips: its first child, else the next sibling of it or of
// its nearest ancestor that has one. ok is false after the last pattern.
func next(p []int, n, k int) ([]int, bool) {
	if l := len(p); l < k && p[l-1]+1 < n {
		return append(p, p[l-1]+1), true
	}
	for len(p) > 0 {
		last := len(p) - 1
		if p[last]+1 < n {
			p[last]++
			return p, true
		}
		p = p[:last]
	}
	return p, false
}
