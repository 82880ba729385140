package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// TestSmoke builds the benchmark and runs every workload at the tiny
// size, untraced and traced: each run must be correct, print exactly
// the metrics BENCHMARK.json declares with their units, and report no
// failure and no digest drift.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", s.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, tr := range []string{"0", "1"} {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "2", "--seconds", "1", "--trace", tr, "--size", "tiny")
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w.Name, tr, err, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				t.Fatalf("%s trace %s: last line is not the report: %v\n%s", w.Name, tr, err, out)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.Name, tr, rep.Correct, rep.Attempted, rep.Failed, out)
			}
			want := endToEnd
			if tr == "1" {
				want = perLayer
				for _, name := range []string{"check.digest_drift", "check.fail_frac"} {
					if v := rep.Metrics[name].Value; v != 0 {
						t.Errorf("%s: %s = %g, want 0", w.Name, name, v)
					}
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, tr, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, tr, d.name, m, d.unit)
				}
			}
		}
	}
}

func checkDefs(t *testing.T, list string, declared []specMetric, defs []metricDef) {
	t.Helper()
	if len(declared) != len(defs) {
		t.Fatalf("BENCHMARK.json %s has %d metrics, the benchmark reports %d", list, len(declared), len(defs))
	}
	for i, d := range defs {
		if declared[i].Name != d.name || declared[i].Unit != d.unit {
			t.Errorf("BENCHMARK.json %s[%d] = %s (%s), the benchmark reports %s (%s)",
				list, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
		}
	}
}

// TestLayerOf pins the profile fold's attribution rules.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"tdram/internal/dramcache.(*chanCtl).pass", "tdram/internal/sim.(*Simulator).Run"}, "dramcache"},
		{[]string{"tdram/internal/dram.(*Channel).Earliest", "tdram/internal/dramcache.(*chanCtl).pass"}, "dram"},
		{[]string{"runtime.mallocgc", "tdram/internal/system.(*core).tick"}, "runtime"},
		{[]string{"sort.insertionSort", "tdram/internal/mem.(*AddrMap).Decode", "tdram/internal/backing.(*channelCtl).schedule"}, "backing"},
		{[]string{"tdram/internal/obs/service.(*Hist).Observe", "tdram/internal/serve.(*Server).instrument.func1"}, "serve"},
		{[]string{"internal/runtime/syscall.Syscall6", "net.(*conn).Write", "net/http.(*conn).serve", "runtime.goexit"}, "other"},
		{[]string{"main.replayPrewarm", "runtime.goexit"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
