package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	a := readPlan(7, "measure", 20, 10*time.Second, 60)
	b := readPlan(7, "measure", 20, 10*time.Second, 60)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different read plans (%d and %d requests)", len(a), len(b))
	}
	if c := readPlan(8, "measure", 20, 10*time.Second, 60); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same read plan")
	}
	if c := readPlan(7, "warmup", 20, 10*time.Second, 60); reflect.DeepEqual(a, c) {
		t.Fatal("different streams of one seed gave the same read plan")
	}
	for i, req := range a {
		if req.Pair < 0 || req.Pair >= 60 || (i > 0 && req.At < a[i-1].At) || req.At >= 10*time.Second {
			t.Fatalf("request %d out of range or out of order: %+v", i, req)
		}
	}

	if !reflect.DeepEqual(streamRand(3, "order").Perm(15), streamRand(3, "order").Perm(15)) {
		t.Fatal("same seed gave different case orders")
	}

	draws := zipfDraws(streamRand(1, "z"), 60, 20000, zipfS)
	if !reflect.DeepEqual(draws, zipfDraws(streamRand(1, "z"), 60, 20000, zipfS)) {
		t.Fatal("same seed gave different Zipf draws")
	}
	counts := make([]int, 60)
	for _, d := range draws {
		counts[d]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[59] {
		t.Fatalf("Zipf draws not decreasing in popularity: %v", counts)
	}

	// Stratified draws: every index comes within one or two draws of its
	// expected count, whatever the seed.
	for _, seed := range []int64{1, 2} {
		const n = 1000
		counts := make([]int, 60)
		for _, d := range zipfDraws(streamRand(seed, "z"), 60, n, zipfS) {
			counts[d]++
		}
		total := 0.0
		for i := range counts {
			total += math.Pow(float64(i+1), -zipfS)
		}
		for i, c := range counts {
			if want := n * math.Pow(float64(i+1), -zipfS) / total; math.Abs(float64(c)-want) >= 2 {
				t.Fatalf("seed %d: index %d drawn %d times, want about %.1f", seed, i, c, want)
			}
		}
	}
	whyNots := 0
	for _, req := range a {
		if req.Kind == kindWhyNot {
			whyNots++
		}
	}
	if want := int(math.Round(whyNotShare * float64(len(a)))); whyNots != want {
		t.Fatalf("read plan has %d why-not requests of %d, want %d", whyNots, len(a), want)
	}

	arr := poissonArrivals(streamRand(1, "p"), 20, 100*time.Second)
	if n := len(arr); n < 1800 || n > 2200 {
		t.Fatalf("Poisson process at 20/s gave %d arrivals in 100s", n)
	}
}

func TestEmbeddedInputsDeterministic(t *testing.T) {
	pick := func() []embCase {
		e := &embedded{r: &run{stamp: map[string]any{}, workload: "saferegion-un-d3"}, spec: d3}
		if err := e.inputs(); err != nil {
			t.Fatal(err)
		}
		return e.cases
	}
	a, b := pick(), pick()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("query workload selection is not deterministic (%d and %d cases)", len(a), len(b))
	}
	for i, c := range a {
		if len(c.rsl) > d3.rslCap || len(c.rsl) == 0 {
			t.Fatalf("case %d feeds %d RSL members, cap is %d", i, len(c.rsl), d3.rslCap)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of 1, 2 = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestCaseQuantile(t *testing.T) {
	s := opLog{}
	for _, v := range []float64{1, 3, 2, 100} { // case 0: median 2.5
		s.add("mwq", 0, v)
	}
	for _, v := range []float64{10, 12, 11} { // case 1: median 11
		s.add("mwq", 1, v)
	}
	if got := s["mwq"].caseQuantile(50); math.Abs(got-6.75) > 1e-12 {
		t.Errorf("caseQuantile(50) = %v, want the mean of 2.5 and 11", got)
	}
	// p10 of 1, 2, 3, 100 is 1.3; of 10, 11, 12 it is 10.2.
	if got := s["mwq"].caseQuantile(10); math.Abs(got-5.75) > 1e-12 {
		t.Errorf("caseQuantile(10) = %v, want the mean of 1.3 and 10.2", got)
	}
	if got := s["mwq"].caseMin(); got != 5.5 {
		t.Errorf("caseMin() = %v, want the mean of 1 and 10", got)
	}
	if got := s["mwq"].seq; !reflect.DeepEqual(got, []float64{1, 3, 2, 100, 10, 12, 11}) {
		t.Errorf("samples in the order taken = %v", got)
	}
	if !math.IsNaN(s["rsl"].caseQuantile(50)) {
		t.Error("caseQuantile of an operation never run is not NaN")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	got, ok := tail(xs)
	if want := (tailStat{Value: 20, Percentile: 100 * 20.0 / 30, Samples: 30}); !ok || got != want {
		t.Errorf("tail of 1..30 = %+v (ok %v), want %+v", got, ok, want)
	}
	got, ok = tail(xs[:21]) // 30..10
	if want := (tailStat{Value: 20, Percentile: 100 * 11.0 / 21, Samples: 21}); !ok || got != want {
		t.Errorf("tail of 21 samples = %+v (ok %v), want %+v", got, ok, want)
	}
	got, ok = tail(xs[:20]) // 30..11: the 10th smallest would be the median
	if ok || got.Value != 30 || got.Samples != 20 {
		t.Errorf("tail of 20 samples = %+v (ok %v), want the maximum and ok false", got, ok)
	}
	if got, ok := tail(nil); ok || got.Value != 0 {
		t.Errorf("tail of nothing = %+v (ok %v)", got, ok)
	}
	var many []float64
	for i := 0; i < 1000; i++ {
		many = append(many, float64(i))
	}
	got, _ = tail(many)
	if got.Value != 989 || got.Percentile != 99 {
		t.Errorf("tail of 0..999 = %+v, want 989 at p99", got)
	}
}

func TestBlockTail(t *testing.T) {
	blocks := func(per int, burst bool) []float64 {
		var xs []float64
		for b := 0; b < tailBlocks; b++ {
			for i := 0; i < per; i++ {
				v := float64(i % 100)
				if burst && b == 1 && i < 30 {
					v = 1000 // a burst of interference in one block
				}
				xs = append(xs, v)
			}
		}
		return xs
	}
	// 100 samples a block, 0..99: the 11th largest is 89, at p90.
	got, ok := blockTail(blocks(100, true))
	if want := (tailStat{Value: 89, Percentile: 90, Samples: 300, Blocks: tailBlocks}); !ok || got != want {
		t.Errorf("blockTail = %+v (ok %v), want %+v", got, ok, want)
	}
	// The same statistic at ten times the samples: blocks of 1000, ten
	// copies of 0..99, so the 11th largest is 98 at p99.
	got, ok = blockTail(blocks(1000, true))
	if want := (tailStat{Value: 98, Percentile: 99, Samples: 3000, Blocks: tailBlocks}); !ok || got != want {
		t.Errorf("blockTail of 3000 samples = %+v (ok %v), want %+v", got, ok, want)
	}
	// Too few samples for a tail in each block.
	if got, ok := blockTail(blocks(20, false)); ok || got.Blocks != tailBlocks || got.Samples != 60 {
		t.Errorf("blockTail of 60 samples = %+v (ok %v), want ok false", got, ok)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 1, Name: "leaf", Start: 15, End: 20},
		{ID: 4, Parent: 0, Name: "b", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: -1, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root": {Calls: 2, Total: 110, Self: 100 - 60 + 10},
		"a":    {Calls: 1, Total: 30, Self: 25},
		"b":    {Calls: 2, Total: 60, Self: 60},
		"leaf": {Calls: 1, Total: 5, Self: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
	if m := want["b"].meanMS(); math.Abs(m-30e-6) > 1e-15 {
		t.Errorf("meanMS = %v", m)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.do("a", func() { tr.do("leaf", func() {}) })
	tr.do("b", func() {})
	tr.end(root)
	tr.do("next", func() {})
	var parents []int
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := []int{-1, 0, 1, 0, -1}; !reflect.DeepEqual(parents, want) {
		t.Fatalf("parents = %v, want %v", parents, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", spec.PerLayer, perLayer)
	}
}
