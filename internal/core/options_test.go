package core

import (
	"errors"
	"math"
	"testing"

	"banks/internal/graph"
)

// TestOptionsValidationTyped drives every invalid-field case through every
// algorithm entry point: each must return an *OptionsError naming the
// field — never panic, never a bare error.
func TestOptionsValidationTyped(t *testing.T) {
	g, kw := grayGraph(t)
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"negative K", Options{K: -1}, "K"},
		{"negative Mu", Options{Mu: -0.5}, "Mu"},
		{"Mu at 1", Options{Mu: 1}, "Mu"},
		{"negative Lambda", Options{Lambda: -1}, "Lambda"},
		{"NaN Mu", Options{Mu: math.NaN()}, "Mu"},
		{"NaN Lambda", Options{Lambda: math.NaN()}, "Lambda"},
		{"negative DMax", Options{DMax: -2}, "DMax"},
		{"negative MaxNodes", Options{MaxNodes: -7}, "MaxNodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, algo := range Algos() {
				_, err := Search(nil, g, algo, kw, tc.opts)
				var oe *OptionsError
				if !errors.As(err, &oe) {
					t.Fatalf("%s: got %v, want *OptionsError", algo, err)
				}
				if oe.Field != tc.field {
					t.Fatalf("%s: error field %q, want %q", algo, oe.Field, tc.field)
				}
			}
			_, _, err := Near(nil, g, kw, tc.opts)
			var oe *OptionsError
			if !errors.As(err, &oe) {
				t.Fatalf("near: got %v, want *OptionsError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("near: error field %q, want %q", oe.Field, tc.field)
			}
		})
	}
}

// TestOptionsEmptyKeywordGroup pins the documented fallback for a keyword
// matching no nodes: an empty (non-error) result — no answer can contain
// the keyword, so none exists.
func TestOptionsEmptyKeywordGroup(t *testing.T) {
	g, _ := grayGraph(t)
	kw := [][]graph.NodeID{{0}, {}}
	for _, algo := range Algos() {
		res, err := Search(nil, g, algo, kw, Options{K: 5})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Answers) != 0 {
			t.Fatalf("%s: %d answers for an unmatched keyword", algo, len(res.Answers))
		}
	}
	nr, _, err := Near(nil, g, kw, Options{K: 5})
	if err != nil {
		t.Fatalf("near: %v", err)
	}
	if len(nr) != 0 {
		t.Fatalf("near: %d results for an unmatched keyword", len(nr))
	}
}

// TestOptionsZeroKDefaults pins the documented fallback K == 0 → DefaultK.
func TestOptionsZeroKDefaults(t *testing.T) {
	g, kw := grayGraph(t)
	for _, algo := range Algos() {
		res, err := Search(nil, g, algo, kw, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Answers) == 0 || len(res.Answers) > DefaultK {
			t.Fatalf("%s: %d answers, want 1..%d (K=0 defaults to %d)",
				algo, len(res.Answers), DefaultK, DefaultK)
		}
	}
}
