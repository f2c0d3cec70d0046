package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeHandValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample std with n-1: variance = 32/7.
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Median != 3 {
		t.Errorf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	if got := Summarize([]float64{9, 1, 5}).Median; got != 5 {
		t.Errorf("median = %v", got)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestRelStd(t *testing.T) {
	s := Summary{Mean: 100, Std: 1}
	if got := s.RelStd(); got != 0.01 {
		t.Errorf("RelStd = %v", got)
	}
	if (Summary{}).RelStd() != 0 {
		t.Error("zero mean should give 0")
	}
}

func TestPercentDelta(t *testing.T) {
	if got := PercentDelta(200, 150); got != 25 {
		t.Errorf("delta = %v, want 25", got)
	}
	if got := PercentDelta(100, 110); got != -10 {
		t.Errorf("delta = %v, want -10", got)
	}
	if PercentDelta(0, 5) != 0 {
		t.Error("zero ref should give 0")
	}
}

func TestSummaryStringContainsFields(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if str := s.String(); len(str) == 0 {
		t.Error("empty string")
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
