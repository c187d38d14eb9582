package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// spread is the distance between the quartiles as a share of the median;
// it needs four runs to mean anything.
func spread(v []float64) (float64, bool) {
	if len(v) < 4 {
		return 0, false
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v), true
}

// side is one file's runs of one workload, plain or traced.
type side struct {
	values  map[string][]float64
	digests map[uint64]string // by seed
	failed  uint64
}

func sides(reports []report) map[string]*side {
	out := map[string]*side{}
	for _, r := range reports {
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		s := out[key]
		if s == nil {
			s = &side{values: map[string][]float64{}, digests: map[uint64]string{}}
			out[key] = s
		}
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v)
		}
		s.digests[r.Seed] = r.Digest
		s.failed += r.Failed
	}
	return out
}

// layerMoved is how far a per-layer median must move, beyond both
// sides' spread, to be listed.
const layerMoved = 0.05

// compareFiles prints one row per workload and end-to-end metric, then
// the per-layer metrics that moved, and returns the exit status: 1 when
// any end-to-end metric got worse by more than its bound or more ops
// failed, 2 when the files cannot be compared.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldReports, err := readReports(oldPath)
	if err == nil && len(oldReports) == 0 {
		err = fmt.Errorf("%s holds no runs", oldPath)
	}
	var newReports []report
	if err == nil {
		if newReports, err = readReports(newPath); err == nil && len(newReports) == 0 {
			err = fmt.Errorf("%s holds no runs", newPath)
		}
	}
	if err != nil {
		fmt.Fprintln(w, "bench -compare:", err)
		return 2
	}
	olds, news := sides(oldReports), sides(newReports)
	var keys []string
	for k := range olds {
		if news[k] != nil {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)

	status := 0
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, k := range keys {
		o, n := olds[k], news[k]
		for _, d := range endToEnd {
			ov, nv := o.values[d.name], n.values[d.name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			so, okO := spread(ov)
			sn, okN := spread(nv)
			sp := math.Max(so, sn)
			spText := "n/a"
			if okO && okN {
				spText = fmt.Sprintf("%.2f%%", 100*sp)
			}
			ratio := nm / om
			worse := ratio - 1 // share by which the new median is worse
			if d.better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within bound"
			switch {
			case sp > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "WORSE"
				status = 1
			case worse < 0 && -worse > sp && nm != om:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-20s %-20s %14.6g %14.6g %8.4f %8s %7.0f%%  %s (base: old, %d and %d runs)\n",
				k, d.name, om, nm, ratio, spText, 100*d.bound, verdict, len(ov), len(nv))
		}
		same, differ := 0, 0
		for seed, dg := range o.digests {
			if nd, ok := n.digests[seed]; ok {
				if nd == dg {
					same++
				} else {
					differ++
				}
			}
		}
		if same+differ > 0 {
			fmt.Fprintf(w, "%-20s %-20s %d seeds in both files: %d identical, %d differ\n", k, "virt_digest", same+differ, same, differ)
		}
		if n.failed > o.failed {
			fmt.Fprintf(w, "%-20s %-20s %14d %14d  WORSE\n", k, "failed ops", o.failed, n.failed)
			status = 1
		}
	}

	fmt.Fprintf(w, "\nper-layer metrics whose median moved more than %.0f%% and more than the spread:\n", 100*layerMoved)
	for _, k := range keys {
		o, n := olds[k], news[k]
		for _, d := range perLayer {
			ov, nv := o.values[d.name], n.values[d.name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			so, _ := spread(ov)
			sn, _ := spread(nv)
			if om == nm {
				continue
			}
			change := math.Abs(nm-om) / math.Max(math.Abs(om), math.Abs(nm))
			if change > layerMoved && change > math.Max(so, sn) {
				fmt.Fprintf(w, "%-20s %-44s %14.6g -> %-14.6g %s\n", k, d.name, om, nm, d.unit)
			}
		}
	}
	return status
}
