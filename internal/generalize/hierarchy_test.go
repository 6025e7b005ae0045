package generalize

import (
	"testing"
	"testing/quick"

	"repro/internal/relational"
)

func TestNumericHierarchy(t *testing.T) {
	h, err := NewNumericHierarchy(5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 5 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Float(72)
	if got := h.Generalize(v, 0); !relational.Equal(got, v) {
		t.Errorf("level 0 = %s", got)
	}
	if got := h.Generalize(v, 1); got.Display() != "[70-75)" {
		t.Errorf("level 1 = %s", got.Display())
	}
	if got := h.Generalize(v, 2); got.Display() != "[70-80)" {
		t.Errorf("level 2 = %s", got.Display())
	}
	if got := h.Generalize(v, 3); got.Display() != "[60-80)" {
		t.Errorf("level 3 = %s", got.Display())
	}
	if got := h.Generalize(v, 4); !relational.Equal(got, Suppressed) {
		t.Errorf("top level = %s, want *", got)
	}
	// Out-of-range levels clamp.
	if got := h.Generalize(v, 99); !relational.Equal(got, Suppressed) {
		t.Errorf("clamped level = %s", got)
	}
	if got := h.Generalize(v, -3); !relational.Equal(got, v) {
		t.Errorf("negative level = %s", got)
	}
	// Int input works; text input suppresses; NULL passes through.
	if got := h.Generalize(relational.Int(72), 1); got.Display() != "[70-75)" {
		t.Errorf("int input = %s", got.Display())
	}
	if got := h.Generalize(relational.Text("x"), 1); !relational.Equal(got, Suppressed) {
		t.Errorf("text input = %s", got)
	}
	if got := h.Generalize(relational.Null(), 3); !got.IsNull() {
		t.Errorf("NULL should pass through, got %s", got)
	}
}

func TestNumericHierarchyErrors(t *testing.T) {
	if _, err := NewNumericHierarchy(0, 2, 1); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewNumericHierarchy(5, 1, 1); err == nil {
		t.Error("factor 1 should fail")
	}
	if _, err := NewNumericHierarchy(5, 2, 0); err == nil {
		t.Error("zero depth should fail")
	}
}

// Property: generalization is deterministic and level-monotone in class
// coarseness — two values in the same bucket at level L stay together at
// every higher range level.
func TestNumericBucketsNest(t *testing.T) {
	h, _ := NewNumericHierarchy(5, 2, 4)
	f := func(a, b int16, lvRaw uint8) bool {
		lv := 1 + int(lvRaw)%(h.Levels()-2) // a range level
		va, vb := relational.Float(float64(a)), relational.Float(float64(b))
		if h.Generalize(va, lv).Display() != h.Generalize(vb, lv).Display() {
			return true // not in same bucket: nothing to check
		}
		for l := lv + 1; l < h.Levels()-1; l++ {
			if h.Generalize(va, l).Display() != h.Generalize(vb, l).Display() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCategoryHierarchy(t *testing.T) {
	h, err := NewCategoryHierarchy(map[string]string{
		"calgary":  "alberta",
		"edmonton": "alberta",
		"alberta":  "canada",
		"toronto":  "ontario",
		"ontario":  "canada",
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 4 { // identity + 2 ancestor levels + suppression
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Text("Calgary")
	if got := h.Generalize(v, 1); got.Display() != "alberta" {
		t.Errorf("level 1 = %s", got.Display())
	}
	if got := h.Generalize(v, 2); got.Display() != "canada" {
		t.Errorf("level 2 = %s", got.Display())
	}
	if got := h.Generalize(v, 3); !relational.Equal(got, Suppressed) {
		t.Errorf("level 3 = %s", got)
	}
	// Value already at root stays there below suppression.
	if got := h.Generalize(relational.Text("canada"), 2); got.Display() != "canada" {
		t.Errorf("root stays: %s", got.Display())
	}
	// Unknown category stays itself at ancestor levels (treated as root).
	if got := h.Generalize(relational.Text("mars"), 1); got.Display() != "mars" {
		t.Errorf("unknown category = %s", got.Display())
	}
	// Non-text suppresses at range levels.
	if got := h.Generalize(relational.Int(5), 1); !relational.Equal(got, Suppressed) {
		t.Errorf("non-text = %s", got)
	}
}

func TestCategoryHierarchyErrors(t *testing.T) {
	if _, err := NewCategoryHierarchy(map[string]string{}); err == nil {
		t.Error("empty hierarchy should fail")
	}
	if _, err := NewCategoryHierarchy(map[string]string{"a": "b", "b": "a"}); err == nil {
		t.Error("cycle should fail")
	}
}

func TestSuppressionHierarchy(t *testing.T) {
	var h SuppressionHierarchy
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Text("ssn-123")
	if got := h.Generalize(v, 0); !relational.Equal(got, v) {
		t.Errorf("level 0 = %s", got)
	}
	if got := h.Generalize(v, 1); !relational.Equal(got, Suppressed) {
		t.Errorf("level 1 = %s", got)
	}
	if got := h.Generalize(relational.Null(), 1); !got.IsNull() {
		t.Errorf("NULL = %s", got)
	}
}

func TestLevelFor(t *testing.T) {
	h, err := NewNumericHierarchy(5, 2, 2) // levels 0..3
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ g, gmax, want int }{
		{3, 3, 0}, // fully specific → exact
		{4, 3, 0}, // above the scale → exact
		{2, 3, 1}, // one third withheld → rounds up to level 1
		{1, 3, 2}, // two thirds withheld → level 2
		{0, 3, 3}, // nothing revealed → suppressed
		{-1, 3, 3},
		{1, 0, 0}, // degenerate scale never generalizes
	}
	for _, c := range cases {
		if got := LevelFor(h, c.g, c.gmax); got != c.want {
			t.Errorf("LevelFor(g=%d, gmax=%d) = %d, want %d", c.g, c.gmax, got, c.want)
		}
	}
	if got := LevelFor(SuppressionHierarchy{}, 2, 3); got != 1 {
		t.Errorf("any withheld granularity suppresses on a two-level hierarchy: got %d", got)
	}
}

func TestRoundingHierarchy(t *testing.T) {
	h, err := NewRoundingHierarchy(5, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 5 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Float(72.4)
	checks := map[int]float64{1: 70, 2: 70, 3: 75}
	for lv, want := range checks {
		got, _ := h.Generalize(v, lv).AsFloat()
		if got != want {
			t.Errorf("level %d = %g, want %g", lv, got, want)
		}
	}
	if got := h.Generalize(v, 4); !relational.Equal(got, Suppressed) {
		t.Errorf("top = %s", got)
	}
	if _, err := NewRoundingHierarchy(); err == nil {
		t.Error("no steps should fail")
	}
	if _, err := NewRoundingHierarchy(5, 5); err == nil {
		t.Error("non-increasing steps should fail")
	}
	if _, err := NewRoundingHierarchy(-1); err == nil {
		t.Error("negative step should fail")
	}
}
