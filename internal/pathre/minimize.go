package pathre

// Minimize returns an equivalent complete DFA with the minimum number
// of states (Hopcroft's partition-refinement algorithm). The encoders
// minimize each constraint automaton before forming the product, which
// can shrink the reachable product state space substantially.
//
// The partition lives in one permutation of the states, each block a
// contiguous range of it, and a split moves the marked states to the
// front of their block, so refinement allocates nothing per splitter.
// The quotient numbers the start block 0 and the remaining blocks in
// order of their least state, which makes the output independent of
// the order splitters are processed in.
func (d *DFA) Minimize() *DFA {
	n := d.NumStates()
	if n <= 1 {
		return d
	}
	k := len(d.Alphabet)

	// Inverse transitions, CSR style: the states s with δ(s,c) = t are
	// rev[revStart[c*n+t]:revStart[c*n+t+1]].
	revStart := make([]int32, k*n+1)
	for s := 0; s < n; s++ {
		for c := 0; c < k; c++ {
			revStart[c*n+d.Trans[s*k+c]+1]++
		}
	}
	for i := 1; i < len(revStart); i++ {
		revStart[i] += revStart[i-1]
	}
	rev := make([]int32, n*k)
	for s := 0; s < n; s++ {
		for c := 0; c < k; c++ {
			at := c*n + d.Trans[s*k+c]
			rev[revStart[at]] = int32(s)
			revStart[at]++
		}
	}
	// The fill advanced every start to the next list's start; shift
	// them back.
	copy(revStart[1:], revStart[:len(revStart)-1])
	revStart[0] = 0

	// Partition: block b is elems[first[b]:end[b]]; pos[s] is state
	// s's index in elems and block[s] its block. Initially accepting
	// states form one block and the rest another.
	elems := make([]int32, n)
	pos := make([]int32, n)
	block := make([]int32, n)
	var first, end []int32
	accepting := 0
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			accepting++
		}
	}
	lo, hi := 0, accepting
	for s := 0; s < n; s++ {
		at := &hi
		if d.Accept[s] {
			at = &lo
		}
		elems[*at], pos[s] = int32(s), int32(*at)
		*at++
	}
	for _, bounds := range [2][2]int{{0, accepting}, {accepting, n}} {
		if bounds[0] == bounds[1] {
			continue
		}
		for _, s := range elems[bounds[0]:bounds[1]] {
			block[s] = int32(len(first))
		}
		first = append(first, int32(bounds[0]))
		end = append(end, int32(bounds[1]))
	}

	// Worklist of (block, symbol) splitters.
	type splitter struct{ b, c int32 }
	var work []splitter
	for b := range first {
		for c := 0; c < k; c++ {
			work = append(work, splitter{int32(b), int32(c)})
		}
	}

	// marked[b] counts the states of block b moved to its front by the
	// current splitter; touched lists the blocks with marked[b] > 0.
	marked := make([]int32, len(first), n)
	var x, touched []int32
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		// X = states with a c-transition into block sp.b, collected
		// before marking reorders any block.
		x = x[:0]
		for _, t := range elems[first[sp.b]:end[sp.b]] {
			at := int(sp.c)*n + int(t)
			x = append(x, rev[revStart[at]:revStart[at+1]]...)
		}
		touched = touched[:0]
		for _, s := range x {
			b := block[s]
			if marked[b] == 0 {
				touched = append(touched, b)
			}
			// Swap s into the marked prefix of its block.
			front := first[b] + marked[b]
			other := elems[front]
			elems[front], elems[pos[s]] = s, other
			pos[other], pos[s] = pos[s], front
			marked[b]++
		}
		// Split every block partially covered by X: the smaller half
		// becomes a new block and a new splitter for every symbol.
		for _, b := range touched {
			m := marked[b]
			marked[b] = 0
			size := end[b] - first[b]
			if m == size {
				continue
			}
			nb := int32(len(first))
			if m <= size-m {
				first, end = append(first, first[b]), append(end, first[b]+m)
				first[b] += m
			} else {
				first, end = append(first, first[b]+m), append(end, end[b])
				end[b] = first[b] + m
			}
			marked = append(marked, 0)
			for _, s := range elems[first[nb]:end[nb]] {
				block[s] = nb
			}
			for c := 0; c < k; c++ {
				work = append(work, splitter{nb, int32(c)})
			}
		}
	}

	// Number the start block 0, then the others by least state: a scan
	// of the states in ascending order meets each block first at its
	// least state.
	newID := make([]int32, len(first))
	for i := range newID {
		newID[i] = -1
	}
	newID[block[d.Start]] = 0
	next := int32(1)
	for s := 0; s < n; s++ {
		if newID[block[s]] < 0 {
			newID[block[s]] = next
			next++
		}
	}
	out := &DFA{
		Alphabet: d.Alphabet,
		Index:    d.Index,
		Trans:    make([]int, len(first)*k),
		Accept:   make([]bool, len(first)),
		Start:    0,
	}
	for b := range first {
		rep := int(elems[first[b]])
		id := int(newID[b])
		out.Accept[id] = d.Accept[rep]
		for c := 0; c < k; c++ {
			out.Trans[id*k+c] = int(newID[block[d.Trans[rep*k+c]]])
		}
	}
	return out
}
