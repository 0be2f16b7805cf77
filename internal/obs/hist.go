package obs

import "sort"

// BucketCount is one bucket of a histogram snapshot in cumulative
// (Prometheus-style) form: Cumulative counts every observation whose
// value is at most UpperBound.
type BucketCount struct {
	// UpperBound is the largest value the bucket covers (inclusive,
	// the exposition's "le" label).
	UpperBound int64
	// Cumulative is the number of observations ≤ UpperBound.
	Cumulative int64
}

// HistogramSnapshot is the exposition-facing view of a Histogram:
// cumulative bucket counts up to the last occupied bucket plus
// quantile estimates interpolated within the power-of-two buckets.
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	Max   int64
	// Buckets lists every bucket from 0 through the last occupied one
	// with cumulative counts; empty when the histogram has no
	// observations.
	Buckets []BucketCount
	// P50, P90, P99 are quantile estimates (see Quantile).
	P50, P90, P99 int64
}

// Snapshot converts the histogram into cumulative-bucket form with
// p50/p90/p99 estimates. The receiver is a value, so snapshotting a
// copy obtained from Recorder.Metrics is safe without locks.
func (h Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count: h.Count,
		Sum:   h.Sum,
		Max:   h.Max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	last := -1
	for i, n := range h.Buckets {
		if n > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += h.Buckets[i]
		snap.Buckets = append(snap.Buckets, BucketCount{
			UpperBound: BucketLo(i+1) - 1,
			Cumulative: cum,
		})
	}
	return snap
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution: it finds the power-of-two bucket containing the
// quantile rank and interpolates linearly inside it, clamping to the
// recorded maximum so the tail estimate never exceeds an actually
// observed value. An empty histogram reports 0.
func (h Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i == 0 {
			return 0 // bucket 0 holds only the value 0
		}
		lo := BucketLo(i)
		hi := BucketLo(i+1) - 1
		// Fractional position of the rank inside this bucket.
		frac := (rank - float64(prev)) / float64(n)
		est := lo + int64(frac*float64(hi-lo))
		if est > h.Max {
			est = h.Max
		}
		return est
	}
	return h.Max
}

// Observe records one value directly into the histogram. Callers
// holding a Recorder should prefer Recorder.Observe, which locks;
// this method serves lock-managed aggregates such as a telemetry
// registry. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bucketOf(v)]++
}

// Merge folds another histogram into h bucket-by-bucket — the
// aggregation a process-wide registry performs over per-request
// histograms.
func (h *Histogram) Merge(other Histogram) {
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Metrics returns copies of the recorder's counters and histograms,
// the aggregation feed for a process-wide telemetry registry. Both
// maps are fresh; mutating them does not affect the recorder. A nil
// recorder returns nil maps.
func (r *Recorder) Metrics() (counters map[string]int64, hists map[string]Histogram) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	counters = make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists = make(map[string]Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = *h
	}
	return counters, hists
}

// SortedKeys lists a metric map's names in order, the order every
// exposition prints them in.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
