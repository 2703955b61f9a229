package profile

import (
	"slices"
	"sort"
)

// StepSkew is the skew analysis of one synchronized step: how unevenly the
// step's work was spread over its parts and who paid for it.
type StepSkew struct {
	Job   string `json:"job"`
	Step  int    `json:"step"`
	Parts int    `json:"parts"`

	MaxComputeNS    int64 `json:"max_compute_ns"`
	MedianComputeNS int64 `json:"median_compute_ns"`
	TotalComputeNS  int64 `json:"total_compute_ns"`
	// SkewRatio is max/median part compute time: 1.0 is perfectly balanced;
	// a step whose slowest part took 4x the median scores 4.0 (see the
	// SkewRatio function for a median of zero).
	SkewRatio float64 `json:"skew_ratio"`
	// StragglerPart is the part that set the step's critical path.
	StragglerPart int `json:"straggler_part"`
	// BarrierWaitNS is the total time all parts idled behind the straggler.
	BarrierWaitNS int64 `json:"barrier_wait_ns"`
	// CriticalPathShare is (max-median)/max: the fraction of the step's
	// critical path attributable to skew — what the step would save if the
	// straggler ran at the median.
	CriticalPathShare float64 `json:"critical_path_share"`
}

// PartRank scores one part's contribution to straggling across a whole run.
type PartRank struct {
	Job  string `json:"job"`
	Part int    `json:"part"`
	// StepsSlowest counts the steps in which the part was the straggler.
	StepsSlowest int `json:"steps_slowest"`
	// ExcessNS sums the part's compute time beyond each step's median — the
	// wall-clock it alone added to the job's critical path.
	ExcessNS int64 `json:"excess_ns"`
	// ComputeNS is the part's total compute time.
	ComputeNS int64 `json:"compute_ns"`
	// Faults and Retries aggregate the part's fault/retry attribution.
	Faults  int64 `json:"faults,omitempty"`
	Retries int64 `json:"retries,omitempty"`
	// HotEdges is the part's heaviest incoming causal edges, filled in by
	// AttachLineage when a sampled span dump is available.
	HotEdges []HotEdge `json:"hot_edges,omitempty"`
}

// Report is the full skew analysis of a set of records.
type Report struct {
	// Records is the number of profiles analyzed.
	Records int `json:"records"`
	// Steps holds one StepSkew per (job, step) with >= 2 parts, in
	// (job, step) order.
	Steps []StepSkew `json:"steps"`
	// Stragglers ranks parts by excess critical-path time, worst first
	// (top-K, K from Analyze).
	Stragglers []PartRank `json:"stragglers"`
	// HotKeys ranks component keys by delivered messages, heaviest first
	// (top-K; only present when the recorder tracked keys).
	HotKeys []KeyCount `json:"hot_keys,omitempty"`
	// MaxSkewRatio is the worst step skew seen, and MeanSkewRatio the mean
	// over all analyzed steps.
	MaxSkewRatio  float64 `json:"max_skew_ratio"`
	MeanSkewRatio float64 `json:"mean_skew_ratio"`
	// BarrierWaitNS is the total barrier idle time across all records —
	// the run's aggregate price of synchronization skew.
	BarrierWaitNS int64 `json:"barrier_wait_ns"`
	// NoSyncParts counts step-0 (no-sync) records, which have no barrier and
	// are excluded from the per-step skew table.
	NoSyncParts int `json:"nosync_parts,omitempty"`
	// Servers ranks part-servers by client-observed RPC time, worst first,
	// filled in by AttachFleet when a merged fleet timeline is available.
	Servers []ServerCost `json:"servers,omitempty"`
}

// TopStraggler returns the worst-ranked part, or (-1, false) when the report
// has no straggler ranking.
func (r *Report) TopStraggler() (PartRank, bool) {
	if r == nil || len(r.Stragglers) == 0 {
		return PartRank{Part: -1}, false
	}
	return r.Stragglers[0], true
}

// Analyze builds the skew report for a set of records. hot may be nil; topK
// bounds the straggler and hot-key rankings (<= 0 means 10).
func Analyze(profs []StepProfile, hot []KeyCount, topK int) *Report {
	if topK <= 0 {
		topK = 10
	}
	rep := &Report{Records: len(profs)}

	type stepKey struct {
		job  string
		step int
	}
	groups := make(map[stepKey][]StepProfile)
	ranks := make(map[attrKey]*PartRank) // step field unused (always 0)
	for _, p := range profs {
		rep.BarrierWaitNS += p.BarrierWaitNS
		if p.Step <= 0 {
			rep.NoSyncParts++
		}
		groups[stepKey{p.Job, p.Step}] = append(groups[stepKey{p.Job, p.Step}], p)
		rk := attrKey{job: p.Job, part: p.Part}
		r := ranks[rk]
		if r == nil {
			r = &PartRank{Job: p.Job, Part: p.Part}
			ranks[rk] = r
		}
		r.ComputeNS += p.ComputeNS
		r.Faults += p.Faults
		r.Retries += p.Retries
	}

	keys := make([]stepKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].job != keys[j].job {
			return keys[i].job < keys[j].job
		}
		return keys[i].step < keys[j].step
	})

	var skewSum float64
	for _, k := range keys {
		g := groups[k]
		if k.step <= 0 || len(g) < 2 {
			continue
		}
		durs := make([]int64, len(g))
		straggler := g[0]
		var total, wait int64
		for i, p := range g {
			durs[i] = p.ComputeNS
			total += p.ComputeNS
			wait += p.BarrierWaitNS
			if p.ComputeNS > straggler.ComputeNS {
				straggler = p
			}
		}
		skew := SkewRatio(durs) // sorts durs
		median := medianOf(durs)
		ss := StepSkew{
			Job:             k.job,
			Step:            k.step,
			Parts:           len(g),
			MaxComputeNS:    straggler.ComputeNS,
			MedianComputeNS: median,
			TotalComputeNS:  total,
			StragglerPart:   straggler.Part,
			BarrierWaitNS:   wait,
			SkewRatio:       skew,
		}
		if ss.MaxComputeNS > 0 {
			ss.CriticalPathShare = float64(ss.MaxComputeNS-median) / float64(ss.MaxComputeNS)
		}
		if ss.SkewRatio > rep.MaxSkewRatio {
			rep.MaxSkewRatio = ss.SkewRatio
		}
		skewSum += ss.SkewRatio
		rep.Steps = append(rep.Steps, ss)

		r := ranks[attrKey{job: k.job, part: straggler.Part}]
		r.StepsSlowest++
		for _, p := range g {
			if excess := p.ComputeNS - median; excess > 0 {
				ranks[attrKey{job: p.Job, part: p.Part}].ExcessNS += excess
			}
		}
	}
	if len(rep.Steps) > 0 {
		rep.MeanSkewRatio = skewSum / float64(len(rep.Steps))
	}

	all := make([]PartRank, 0, len(ranks))
	for _, r := range ranks {
		all = append(all, *r)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ExcessNS != all[j].ExcessNS {
			return all[i].ExcessNS > all[j].ExcessNS
		}
		if all[i].StepsSlowest != all[j].StepsSlowest {
			return all[i].StepsSlowest > all[j].StepsSlowest
		}
		if all[i].ComputeNS != all[j].ComputeNS {
			return all[i].ComputeNS > all[j].ComputeNS
		}
		if all[i].Job != all[j].Job {
			return all[i].Job < all[j].Job
		}
		return all[i].Part < all[j].Part
	})
	if len(all) > topK {
		all = all[:topK]
	}
	rep.Stragglers = all

	if len(hot) > topK {
		hot = hot[:topK]
	}
	rep.HotKeys = hot
	return rep
}

// SkewRatio is one step's skew over its parts' compute times: the slowest
// part's time over the median part's. When the median part did no work, a
// step where some part worked counts as one part doing all of it (the part
// count) and an idle step as balanced (1). It sorts durs in place. The live
// step-skew gauge and Analyze both read a step through it.
func SkewRatio(durs []int64) float64 {
	if len(durs) == 0 {
		return 1
	}
	slices.Sort(durs)
	slowest, median := durs[len(durs)-1], medianOf(durs)
	switch {
	case median > 0:
		return float64(slowest) / float64(median)
	case slowest > 0:
		return float64(len(durs))
	default:
		return 1
	}
}

// medianOf is the median of sorted durs: the mean of the two middle ones for
// an even count (the lower middle alone overstates skew on 2-part jobs).
func medianOf(sorted []int64) int64 {
	m := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		m = (sorted[len(sorted)/2-1] + m) / 2
	}
	return m
}

// AnalyzeRecorder is Analyze over a recorder's current contents.
func AnalyzeRecorder(r *Recorder, topK int) *Report {
	return Analyze(r.Snapshot(), r.HotKeys(topK), topK)
}
