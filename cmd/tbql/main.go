// Command tbql executes hand-written TBQL queries against an audit log —
// the proactive threat hunting workflow when no OSCTI report is available.
//
// Usage:
//
//	tbql -log audit.log 'proc p read file f["%/etc/passwd%"] return distinct p'
//	tbql -demo password_crack 'proc p read file f["%shadow%"] return p'
//	echo 'proc p read file f return distinct p' | tbql -log audit.log
//	tbql -log audit.log -explain '...'   # print the plan the hunt runs
//	tbql -demo data_leak -i              # interactive hunting session
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"threatraptor"
	"threatraptor/internal/cases"
)

func main() {
	logPath := flag.String("log", "", "audit log file (newline-delimited raw records)")
	demo := flag.String("demo", "", "use a built-in benchmark case's log")
	scale := flag.Float64("scale", 1.0, "benign noise scale for -demo")
	explain := flag.Bool("explain", false, "print the plan the hunt runs: logical-plan IR, compiled SQL/Cypher, physical plans, order, monolithic baselines")
	useFuzzy := flag.Bool("fuzzy", false, "execute in fuzzy search mode")
	interactive := flag.Bool("i", false, "interactive session: one query per line, blank line executes")
	flag.Parse()

	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" && !*interactive {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		query = string(data)
	}

	sys := threatraptor.New(threatraptor.DefaultOptions())
	switch {
	case *demo != "":
		c := cases.ByID(*demo)
		if c == nil {
			log.Fatalf("unknown case %q", *demo)
		}
		gen, err := c.Generate(*scale)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.LoadLog(gen.Log); err != nil {
			log.Fatal(err)
		}
	case *logPath != "":
		f, err := os.Open(*logPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := sys.LoadAuditLog(f); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("one of -log or -demo is required")
	}

	if *interactive {
		repl(sys)
		return
	}

	if *explain {
		report, err := sys.Explain(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(report)
		return
	}

	if *useFuzzy {
		als, err := sys.FuzzyHunt(nil, query, true)
		if err != nil {
			log.Fatal(err)
		}
		for _, al := range als {
			fmt.Printf("score %.2f: %v (%d events)\n", al.Score, al.Entities, len(al.Events))
		}
		return
	}

	res, stats, err := sys.Hunt(nil, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(res.Set.Columns, "\t"))
	for _, row := range res.Set.Strings() {
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Printf("-- %d rows, %d matched events, %d data queries\n",
		res.Set.Len(), len(res.MatchedEvents), stats.DataQueries)
	if stats.EmptyPatternID != "" {
		fmt.Printf("-- note: pattern %s matched no events (conjunction emptied)\n", stats.EmptyPatternID)
	}
}

// repl reads TBQL queries from stdin (terminated by a blank line or EOF)
// and executes each — the iterative query-editing loop of the paper's
// human-in-the-loop analysis.
func repl(sys *threatraptor.System) {
	fmt.Println("tbql> enter a query; finish it with a blank line; ctrl-d exits")
	scanner := bufio.NewScanner(os.Stdin)
	var buf []string
	run := func() {
		query := strings.TrimSpace(strings.Join(buf, "\n"))
		buf = buf[:0]
		if query == "" {
			return
		}
		res, stats, err := sys.Hunt(nil, query)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(strings.Join(res.Set.Columns, "\t"))
		for _, row := range res.Set.Strings() {
			fmt.Println(strings.Join(row, "\t"))
		}
		fmt.Printf("-- %d rows, %d matched events, %d data queries\n",
			res.Set.Len(), len(res.MatchedEvents), stats.DataQueries)
	}
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			run()
			continue
		}
		buf = append(buf, line)
	}
	run()
}
