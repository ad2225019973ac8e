package plot

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func sample() []*stats.Series {
	a := &stats.Series{Label: "alpha"}
	b := &stats.Series{Label: "beta"}
	for i := 1; i <= 5; i++ {
		a.Append(float64(i)*1000, float64(i))
		b.Append(float64(i)*1000, float64(i*i))
	}
	return []*stats.Series{a, b}
}

func TestASCIIRenders(t *testing.T) {
	var out bytes.Buffer
	cfg := Config{Title: "demo", XLabel: "bytes", YLabel: "sec", LogX: true}
	if err := ASCII(&out, cfg, sample()); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(text, "r=alpha") || !strings.Contains(text, "c=beta") {
		t.Errorf("legend missing:\n%s", text)
	}
	if !strings.ContainsRune(text, 'r') || !strings.ContainsRune(text, 'c') {
		t.Error("markers not plotted")
	}
}

func TestASCIIEmpty(t *testing.T) {
	var out bytes.Buffer
	if err := ASCII(&out, Config{Title: "none"}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no data") {
		t.Error("empty plot not reported")
	}
}

func TestASCIIClipsYMax(t *testing.T) {
	s := &stats.Series{Label: "spike"}
	s.Append(1, 1)
	s.Append(2, 1000)
	var out bytes.Buffer
	if err := ASCII(&out, Config{YMax: 10}, []*stats.Series{s}); err != nil {
		t.Fatal(err)
	}
	// The top label must be the clipped maximum, not 1000.
	if strings.Contains(out.String(), "1e+03") || strings.Contains(out.String(), "1000") {
		t.Errorf("y axis not clipped:\n%s", out.String())
	}
}

func TestASCIILogSkipsNonPositive(t *testing.T) {
	s := &stats.Series{Label: "z"}
	s.Append(0, 1) // log10(0) invalid
	s.Append(10, 2)
	var out bytes.Buffer
	if err := ASCII(&out, Config{LogX: true, LogY: true}, []*stats.Series{s}); err != nil {
		t.Fatal(err)
	}
}

func TestCSV(t *testing.T) {
	var out bytes.Buffer
	if err := CSV(&out, "bytes", sample()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "bytes,alpha,beta" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 6 {
		t.Fatalf("rows = %d", len(lines))
	}
	if lines[1] != "1000,1,1" {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestCSVMissingCells(t *testing.T) {
	a := &stats.Series{Label: "a"}
	a.Append(1, 10)
	b := &stats.Series{Label: "b"}
	b.Append(2, 20)
	var out bytes.Buffer
	if err := CSV(&out, "x", []*stats.Series{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[1] != "1,10," || lines[2] != "2,,20" {
		t.Fatalf("rows = %q", lines[1:])
	}
}

func TestTableAligns(t *testing.T) {
	var out bytes.Buffer
	if err := Table(&out, "x", sample()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "x") || !strings.Contains(lines[0], "alpha") {
		t.Fatalf("header = %q", lines[0])
	}
}
