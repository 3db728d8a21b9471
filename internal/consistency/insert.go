package consistency

// Comparison is one pairwise judgement about a candidate item versus an
// item already placed in a sorted list: Less reports whether the oracle
// judged the candidate to precede the list item.
type Comparison struct {
	// ListIndex is the position of the compared item in the sorted list.
	ListIndex int
	// Less is true when the oracle placed the candidate before the item.
	Less bool
}

// AlignmentInsert returns the insertion index (0..listLen) for a candidate
// given its pairwise comparisons against the items of a sorted list,
// choosing the position that inverts the fewest comparisons — the
// "maximise alignment" rule from Section 3.2 of the paper.
//
// Inserting at position p should make the candidate greater than every
// list item before p (comparisons with ListIndex < p should have
// Less == false) and smaller than every item from p on (ListIndex >= p
// should have Less == true). The returned index minimises the number of
// comparisons violating that; ties resolve to the smallest index.
// Multiple comparisons for the same list index (e.g. the order-debiased
// double prompts) each count individually.
func AlignmentInsert(listLen int, comparisons []Comparison) int {
	if listLen < 0 {
		listLen = 0
	}
	// lessAt[i] / geAt[i]: votes that the candidate is less / not-less
	// than list item i. Out-of-range indices are ignored.
	lessAt := make([]int, listLen)
	geAt := make([]int, listLen)
	for _, c := range comparisons {
		if c.ListIndex < 0 || c.ListIndex >= listLen {
			continue
		}
		if c.Less {
			lessAt[c.ListIndex]++
		} else {
			geAt[c.ListIndex]++
		}
	}
	// violations(p) = sum_{i<p} lessAt[i] + sum_{i>=p} geAt[i].
	// Compute with a sweep: start at p=0 and move right.
	viol := 0
	for i := 0; i < listLen; i++ {
		viol += geAt[i]
	}
	best, bestViol := 0, viol
	for p := 1; p <= listLen; p++ {
		viol += lessAt[p-1] - geAt[p-1]
		if viol < bestViol {
			best, bestViol = p, viol
		}
	}
	return best
}

// InsertAt returns a copy of list with item inserted at index p (clamped
// to the valid range).
func InsertAt(list []string, item string, p int) []string {
	if p < 0 {
		p = 0
	}
	if p > len(list) {
		p = len(list)
	}
	out := make([]string, 0, len(list)+1)
	out = append(out, list[:p]...)
	out = append(out, item)
	out = append(out, list[p:]...)
	return out
}
