// Command experiments regenerates the tables of the ThreatRaptor paper's
// evaluation section.
//
// Usage:
//
//	experiments table5                 # extraction accuracy
//	experiments -scale 1 table6        # hunting accuracy per case
//	experiments table7                 # extraction stage timing
//	experiments -scale 1 -rounds 5 table8
//	experiments -scale 0.5 table9
//	experiments table10                # conciseness
//	experiments all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"threatraptor/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "benign noise scale")
	rounds := flag.Int("rounds", 5, "timing rounds for table8 (the paper used 20)")
	flag.Parse()
	which := flag.Arg(0)
	if which == "" {
		flag.Usage()
		os.Exit(2)
	}
	run := func(name string) {
		switch name {
		case "table5":
			table5()
		case "table6":
			table6(*scale)
		case "table7":
			table7()
		case "table8":
			table8(*scale, *rounds)
		case "table9":
			table9(*scale)
		case "table10":
			table10()
		case "ablation":
			ablation(*scale, *rounds)
		default:
			log.Fatalf("unknown table %q (table5..table10, ablation, all)", name)
		}
	}
	if which == "all" {
		for _, name := range []string{"table5", "table6", "table7", "table8", "table9", "table10"} {
			run(name)
			fmt.Println()
		}
		return
	}
	run(which)
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

func table5() {
	fmt.Println("== Table V: IOC entity and relation extraction accuracy (aggregated over 18 cases) ==")
	fmt.Printf("%-36s %10s %10s %10s %10s %10s %10s\n",
		"Approach", "Ent-P", "Ent-R", "Ent-F1", "Rel-P", "Rel-R", "Rel-F1")
	for _, row := range experiments.Table5() {
		fmt.Printf("%-36s %10s %10s %10s %10s %10s %10s\n",
			row.Approach,
			pct(row.Entity.Precision), pct(row.Entity.Recall), pct(row.Entity.F1),
			pct(row.Relation.Precision), pct(row.Relation.Recall), pct(row.Relation.F1))
	}
}

func table6(scale float64) {
	fmt.Println("== Table VI: precision and recall of finding malicious system events ==")
	rows, err := experiments.Table6(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %14s %14s\n", "Case", "Precision", "Recall")
	var tp, fp, fn int
	for _, r := range rows {
		fmt.Printf("%-24s %8d/%-6d %8d/%-6d\n", r.CaseID, r.TP, r.TP+r.FP, r.TP, r.TP+r.FN)
		tp += r.TP
		fp += r.FP
		fn += r.FN
	}
	p, rcl := 0.0, 0.0
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		rcl = float64(tp) / float64(tp+fn)
	}
	f1 := 0.0
	if p+rcl > 0 {
		f1 = 2 * p * rcl / (p + rcl)
	}
	fmt.Printf("%-24s %8d/%-6d %8d/%-6d  (P=%s R=%s F1=%s)\n",
		"Total", tp, tp+fp, tp, tp+fn, pct(p), pct(rcl), pct(f1))
}

func table7() {
	fmt.Println("== Table VII: execution time (seconds) of extraction stages ==")
	rows := experiments.Table7()
	names := []string{
		"ThreatRaptor - IOC Protection", "Stanford Open IE",
		"Stanford Open IE + IOC Protection", "Open IE 5",
		"Open IE 5 + IOC Protection",
	}
	fmt.Printf("%-24s %9s %9s %9s | %9s %9s %9s %9s %9s\n",
		"Case", "text->E&R", "E&R->grph", "grph->TBQL",
		"-IOCProt", "StanfordIE", "Stnfrd+P", "OpenIE5", "OpenIE5+P")
	var sums [8]float64
	for _, r := range rows {
		vals := []float64{r.Extract, r.Graph, r.Synth}
		for _, n := range names {
			vals = append(vals, r.Baselines[n])
		}
		fmt.Printf("%-24s %9.4f %9.4f %9.4f | %9.4f %9.4f %9.4f %9.4f %9.4f\n",
			r.CaseID, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7])
		for i, v := range vals {
			sums[i] += v
		}
	}
	n := float64(len(rows))
	fmt.Printf("%-24s %9.4f %9.4f %9.4f | %9.4f %9.4f %9.4f %9.4f %9.4f  (averages)\n",
		"Average", sums[0]/n, sums[1]/n, sums[2]/n, sums[3]/n, sums[4]/n, sums[5]/n, sums[6]/n, sums[7]/n)
}

func table8(scale float64, rounds int) {
	fmt.Printf("== Table VIII: query execution time (seconds, mean over %d rounds) ==\n", rounds)
	rows, err := experiments.Table8(scale, rounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %5s %18s %18s %18s %18s\n",
		"Case", "#patt", "TBQL", "SQL", "TBQL(len-1 path)", "Cypher")
	var sums [4]float64
	for _, r := range rows {
		fmt.Printf("%-24s %5d %10.4f±%.4f %10.4f±%.4f %10.4f±%.4f %10.4f±%.4f\n",
			r.CaseID, r.Patterns,
			r.TBQL.Mean, r.TBQL.Std, r.SQL.Mean, r.SQL.Std,
			r.TBQLPath.Mean, r.TBQLPath.Std, r.Cypher.Mean, r.Cypher.Std)
		sums[0] += r.TBQL.Mean
		sums[1] += r.SQL.Mean
		sums[2] += r.TBQLPath.Mean
		sums[3] += r.Cypher.Mean
	}
	fmt.Printf("%-24s %5s %11.4f %18.4f %18.4f %18.4f  (totals)\n",
		"Total", "", sums[0], sums[1], sums[2], sums[3])
	if sums[0] > 0 && sums[2] > 0 {
		fmt.Printf("speedup: SQL/TBQL = %.1fx, Cypher/TBQL(path) = %.1fx\n",
			sums[1]/sums[0], sums[3]/sums[2])
	}
}

func table9(scale float64) {
	fmt.Println("== Table IX: fuzzy search mode vs Poirot (seconds) ==")
	fmt.Println("load: build the store (columns and graph) from the log; prep: pin its snapshot; search: alignment search")
	rows, err := experiments.Table9(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s | %9s %9s %9s %9s | %9s %9s %9s\n",
		"Case", "F-load", "F-prep", "F-search", "aligns", "P-load", "P-prep", "P-search")
	for _, r := range rows {
		fmt.Printf("%-24s | %9.4f %9.4f %9.4f %9d | %9.4f %9.4f %9.4f\n",
			r.CaseID, r.Fuzzy.Loading, r.Fuzzy.Preprocessing, r.Fuzzy.Searching,
			r.Alignments, r.Poirot.Loading, r.Poirot.Preprocessing, r.Poirot.Searching)
	}
}

func table10() {
	fmt.Println("== Table X: conciseness of the four query forms ==")
	rows, err := experiments.Table10()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %5s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"Case", "#patt", "TBQL-ch", "TBQL-w", "SQL-ch", "SQL-w", "Path-ch", "Path-w", "Cyp-ch", "Cyp-w")
	var sums [8]int
	patt := 0
	for _, r := range rows {
		fmt.Printf("%-24s %5d %8d %8d %8d %8d %8d %8d %8d %8d\n",
			r.CaseID, r.Patterns, r.TBQLChars, r.TBQLWords, r.SQLChars, r.SQLWords,
			r.TBQLPathChars, r.TBQLPathWords, r.CypherChars, r.CypherWords)
		patt += r.Patterns
		for i, v := range []int{r.TBQLChars, r.TBQLWords, r.SQLChars, r.SQLWords,
			r.TBQLPathChars, r.TBQLPathWords, r.CypherChars, r.CypherWords} {
			sums[i] += v
		}
	}
	fmt.Printf("%-24s %5d %8d %8d %8d %8d %8d %8d %8d %8d  (totals)\n",
		"Total", patt, sums[0], sums[1], sums[2], sums[3], sums[4], sums[5], sums[6], sums[7])
	fmt.Printf("conciseness: SQL/TBQL chars = %.1fx, words = %.1fx; Cypher/TBQL chars = %.1fx, words = %.1fx\n",
		float64(sums[2])/float64(sums[0]), float64(sums[3])/float64(sums[1]),
		float64(sums[6])/float64(sums[0]), float64(sums[7])/float64(sums[1]))
}

func ablation(scale float64, rounds int) {
	fmt.Println("== Ablation A: data reduction threshold sweep (data_leak workload) ==")
	red, err := experiments.ReductionAblation(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%12s %10s %10s %8s %10s\n", "threshold", "before", "after", "factor", "attack-ok")
	for _, r := range red {
		fmt.Printf("%10dms %10d %10d %7.2fx %10v\n",
			r.ThresholdMS, r.Before, r.After, r.Factor, r.AttackEventsPreserved)
	}
	fmt.Println()
	fmt.Println("== Ablation B: pruning-score scheduler on/off (seconds) ==")
	sch, err := experiments.SchedulerAblation(scale, rounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %12s %12s %10s %10s\n", "Case", "scheduled", "unscheduled", "rows-sch", "rows-unsch")
	var sSum, uSum float64
	for _, r := range sch {
		fmt.Printf("%-24s %12.4f %12.4f %10d %10d\n",
			r.CaseID, r.Scheduled.Mean, r.Unscheduled.Mean, r.ScheduledRows, r.UnscheduledRows)
		sSum += r.Scheduled.Mean
		uSum += r.Unscheduled.Mean
	}
	fmt.Printf("%-24s %12.4f %12.4f  (totals; speedup %.1fx)\n", "Total", sSum, uSum, uSum/sSum)
	fmt.Println()
	fmt.Println("== Ablation C: IOC merge similarity threshold (data_leak report) ==")
	fmt.Printf("%10s %8s %8s %10s\n", "threshold", "nodes", "edges", "seconds")
	for _, r := range experiments.MergeAblation() {
		fmt.Printf("%10.2f %8d %8d %10.4f\n", r.Threshold, r.Nodes, r.Edges, r.Seconds)
	}
}
