// benchgate enforces the committed performance budget against a
// benchjson snapshot: per-benchmark allocs/op ceilings, plus a
// parallel-speedup floor that arms itself only on hosts with enough
// cores to make the comparison meaningful. It is the teeth behind the
// bench trajectory — scripts/bench.sh records where the numbers are,
// benchgate fails the build when they regress past the budget.
//
// Usage:
//
//	go run ./scripts/benchgate -bench BENCH_engine.json -budget scripts/bench_budget.json
//
// Budget schema (scripts/bench_budget.json):
//
//   - allocs_ceilings: map of benchmark name to maximum allocs/op. A
//     key matches a record's name exactly, or as a prefix when the
//     name continues with '(' — so "BenchmarkSuiteRun/workers=max"
//     covers the NumCPU-stamped "BenchmarkSuiteRun/workers=max(8)".
//     Every ceiling must find at least one record: a gate that cannot
//     see its benchmark must fail, not silently pass.
//   - speedup_floor: requires ns/op(base) / ns/op(wide) >= min_ratio,
//     but only when the snapshot's host ran min_num_cpu or more CPUs;
//     below that the floor stays dormant (a 1-CPU box cannot speed up).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchRecord mirrors the benchjson record fields the gate reads.
type benchRecord struct {
	Package string             `json:"package"`
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchDoc mirrors the benchjson document shape.
type benchDoc struct {
	Host struct {
		NumCPU int `json:"num_cpu"`
	} `json:"host"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// speedupFloor is the parallel-speedup contract.
type speedupFloor struct {
	MinNumCPU int     `json:"min_num_cpu"`
	Base      string  `json:"base"`
	Wide      string  `json:"wide"`
	MinRatio  float64 `json:"min_ratio"`
}

// budget is the committed regression budget.
type budget struct {
	AllocsCeilings map[string]float64 `json:"allocs_ceilings"`
	SpeedupFloor   *speedupFloor      `json:"speedup_floor"`
}

// nameMatches reports whether a budget key addresses a benchmark name:
// exact, or a prefix whose continuation is a parenthesized qualifier
// (the host-dependent "(NumCPU)" stamp).
func nameMatches(key, name string) bool {
	if name == key {
		return true
	}
	return strings.HasPrefix(name, key) && name[len(key)] == '('
}

// findAll returns the records a budget key addresses.
func findAll(doc *benchDoc, key string) []benchRecord {
	var out []benchRecord
	for _, rec := range doc.Benchmarks {
		if nameMatches(key, rec.Name) {
			out = append(out, rec)
		}
	}
	return out
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

func run(benchPath, budgetPath string) error {
	var doc benchDoc
	if err := loadJSON(benchPath, &doc); err != nil {
		return err
	}
	var bud budget
	if err := loadJSON(budgetPath, &bud); err != nil {
		return err
	}

	failures := 0
	// Ceilings sort by key for stable output; a map range would shuffle
	// the report between runs.
	keys := make([]string, 0, len(bud.AllocsCeilings))
	for k := range bud.AllocsCeilings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ceiling := bud.AllocsCeilings[key]
		recs := findAll(&doc, key)
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: no such benchmark in %s\n", key, benchPath)
			failures++
			continue
		}
		for _, rec := range recs {
			got, ok := rec.Metrics["allocs/op"]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: no allocs/op metric (run with -benchmem)\n", rec.Name)
				failures++
				continue
			}
			if got > ceiling {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %.0f allocs/op exceeds ceiling %.0f\n",
					rec.Name, got, ceiling)
				failures++
				continue
			}
			fmt.Printf("benchgate: ok %s: %.0f allocs/op <= %.0f\n", rec.Name, got, ceiling)
		}
	}

	if sf := bud.SpeedupFloor; sf != nil {
		if doc.Host.NumCPU < sf.MinNumCPU {
			fmt.Printf("benchgate: speedup floor dormant (host has %d CPUs, floor arms at %d)\n",
				doc.Host.NumCPU, sf.MinNumCPU)
		} else {
			base, wide := findAll(&doc, sf.Base), findAll(&doc, sf.Wide)
			switch {
			case len(base) == 0 || len(wide) == 0:
				fmt.Fprintf(os.Stderr, "benchgate: FAIL speedup floor: %q or %q missing from %s\n",
					sf.Base, sf.Wide, benchPath)
				failures++
			default:
				bNs, wNs := base[0].Metrics["ns/op"], wide[0].Metrics["ns/op"]
				if wNs <= 0 {
					fmt.Fprintf(os.Stderr, "benchgate: FAIL speedup floor: %s reports ns/op %g\n",
						sf.Wide, wNs)
					failures++
				} else if ratio := bNs / wNs; ratio < sf.MinRatio {
					fmt.Fprintf(os.Stderr, "benchgate: FAIL speedup floor: %s/%s = %.2fx, floor %.2fx\n",
						sf.Base, sf.Wide, ratio, sf.MinRatio)
					failures++
				} else {
					fmt.Printf("benchgate: ok speedup %s vs %s: %.2fx >= %.2fx\n",
						sf.Base, sf.Wide, ratio, sf.MinRatio)
				}
			}
		}
	}

	if failures > 0 {
		return fmt.Errorf("%d budget violation(s)", failures)
	}
	return nil
}

func main() {
	bench := flag.String("bench", "BENCH_engine.json", "benchjson snapshot to gate")
	budgetPath := flag.String("budget", "scripts/bench_budget.json", "committed budget file")
	flag.Parse()
	if err := run(*bench, *budgetPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
