package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	p := New("test plot", "recall", "precision")
	p.Add(Series{Name: "method A", Marker: '*', X: []float64{0, 0.5, 1}, Y: []float64{1, 0.5, 0}})
	out := p.Render()
	for _, want := range []string{"test plot", "[*] method A", "x: recall, y: precision", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	p := New("empty", "x", "y")
	out := p.Render()
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty plot did not render placeholder:\n%s", out)
	}
	p.Add(Series{Name: "nan only", X: []float64{math.NaN()}, Y: []float64{1}})
	if !strings.Contains(p.Render(), "(no data)") {
		t.Error("NaN-only series should count as no data")
	}
}

func TestRenderDegenerateRange(t *testing.T) {
	p := New("flat", "x", "y")
	p.Add(Series{Name: "s", X: []float64{1, 1, 1}, Y: []float64{2, 2, 2}})
	out := p.Render()
	if strings.Contains(out, "(no data)") {
		t.Error("flat series should still render")
	}
}

func TestDefaultMarkers(t *testing.T) {
	p := New("m", "x", "y")
	p.Add(Series{Name: "one", X: []float64{0}, Y: []float64{0}})
	p.Add(Series{Name: "two", X: []float64{1}, Y: []float64{1}})
	out := p.Render()
	if !strings.Contains(out, "[a] one") || !strings.Contains(out, "[b] two") {
		t.Errorf("default markers wrong:\n%s", out)
	}
}

func TestMismatchedXYLengths(t *testing.T) {
	p := New("mm", "x", "y")
	p.Add(Series{Name: "s", X: []float64{0, 1, 2}, Y: []float64{5}})
	out := p.Render() // must not panic; extra X values ignored
	if strings.Contains(out, "(no data)") {
		t.Error("series with one valid point should render")
	}
}
