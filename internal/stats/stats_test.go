package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestStddev(t *testing.T) {
	// Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is ~2.138.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Stddev(xs); math.Abs(got-2.13809) > 1e-4 {
		t.Fatalf("Stddev = %v, want ~2.138", got)
	}
	if Stddev([]float64{5}) != 0 {
		t.Fatal("Stddev of singleton should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("n", "ratio")
	tb.AddRow(40, 1.2345678)
	tb.AddRow(200, 2.0)
	out := tb.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "ratio") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Fatalf("float not compacted:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + sep + 2 rows
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, "x")
	csv := tb.CSV()
	want := "a,b\n1,x\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.95); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.95, 5}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be mutated (sort happens on a copy).
	if xs[0] != 5 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
	// 20 samples: p95 by nearest rank is the 19th order statistic.
	var big []float64
	for i := 20; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := Percentile(big, 0.95); got != 19 {
		t.Fatalf("p95 of 1..20 = %v, want 19", got)
	}
}
