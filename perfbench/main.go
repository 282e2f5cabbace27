// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the library's public calls, times every rebalance
// and solver round from outside, checks every adopted allocation, and
// prints each metric by name with its unit, ending with one JSON result
// line. See README.md for the workloads and the metrics.
//
//	go run . --workload fw-diurnal --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead runs a traced walk beside an untraced one and
// prints the per-layer metrics and the folded self-time table; with
// --out set it also writes the Chrome trace (loadable in Perfetto) and
// the table there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(runMain())
}

func runMain() int {
	name := flag.String("workload", "", "workload to run: fw-diurnal, mine-outage or descent-diurnal")
	seed := flag.Int64("seed", 1, "seed of the generated scenario and trace")
	seconds := flag.Int("seconds", 20, "run length: a run replays about seconds × the workload's nominal rebalance rate epochs")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", "", "directory for the result record, Chrome trace and self-time table (none when empty)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	h := fingerprint()
	hj, _ := json.Marshal(h) // plain numbers and strings: cannot fail
	rep, err := run(context.Background(), w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d m=%d epochs=%d\n", w.name, *seed, *seconds, *trace, w.m, rep.epochs)
	fmt.Printf("host %s\n", hj)
	ms := rep.e2e
	if *trace == 1 {
		ms = rep.layer
		fmt.Print(rep.selfTime)
	}
	for _, m := range ms {
		fmt.Printf("%-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("%-32s %16.6g %% (%d of %d rebalances)\n", "failed_pct", 100*float64(rep.failed)/float64(max(1, rep.attempted)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Println("problem:", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, map[string]value{}}
	for _, m := range ms {
		result.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *out != "" {
		if err := writeArtifacts(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace), h, rep, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// writeArtifacts writes the run's result record (host fingerprint plus
// the result line), and for a traced run the Chrome trace and the
// self-time table.
func writeArtifacts(dir, stem string, h host, rep *report, line []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	record, err := json.Marshal(struct {
		Host   host            `json:"host"`
		Result json.RawMessage `json:"result"`
	}{h, line})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), append(record, '\n'), 0o644); err != nil {
		return err
	}
	if rep.tracer == nil {
		return nil
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".selftime.txt"), []byte(rep.selfTime), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".trace.json"))
	if err != nil {
		return err
	}
	if err := rep.tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
