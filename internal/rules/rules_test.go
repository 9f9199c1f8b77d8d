package rules

import (
	"strings"
	"testing"

	"pmdebugger/internal/report"
)

func TestModelStrings(t *testing.T) {
	if Strict.String() != "strict" || Epoch.String() != "epoch" || Strand.String() != "strand" {
		t.Fatal("model names wrong")
	}
	if Strict.Relaxed() || !Epoch.Relaxed() || !Strand.Relaxed() {
		t.Fatal("Relaxed() wrong")
	}
}

func TestParseModel(t *testing.T) {
	for _, m := range []Model{Strict, Epoch, Strand} {
		if got, err := ParseModel(m.String()); err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"", "Strict", "relaxed", "model(?)"} {
		if _, err := ParseModel(bad); err == nil {
			t.Errorf("ParseModel(%q) accepted", bad)
		}
	}
}

func TestForBugCoversAllTypes(t *testing.T) {
	var union Set
	for _, bt := range report.AllBugTypes() {
		bit := ForBug(bt)
		if bit == 0 {
			t.Errorf("no rule bit for %s", bt)
		}
		if union&bit != 0 {
			t.Errorf("rule bit for %s overlaps another type", bt)
		}
		union |= bit
	}
	if union != All {
		t.Errorf("union %b != All %b", union, All)
	}
	if ForBug(report.BugType(99)) != 0 {
		t.Error("unknown type mapped to a rule")
	}
}

func TestDefaultRuleSets(t *testing.T) {
	s := Default(Strict)
	if !s.Has(RuleMultipleOverwrites) || !s.Has(RuleNoDurability) {
		t.Errorf("strict defaults wrong: %b", s)
	}
	if s.Has(RuleRedundantEpochFence) {
		t.Errorf("strict enables epoch rules")
	}
	e := Default(Epoch)
	if e.Has(RuleMultipleOverwrites) {
		t.Errorf("epoch enables multiple overwrites")
	}
	if !e.Has(RuleLackDurabilityInEpoch) || !e.Has(RuleRedundantEpochFence) || !e.Has(RuleRedundantLogging) {
		t.Errorf("epoch defaults wrong: %b", e)
	}
	st := Default(Strand)
	if !st.Has(RuleLackOrderingInStrands) || st.Has(RuleMultipleOverwrites) {
		t.Errorf("strand defaults wrong: %b", st)
	}
}

func TestParseOrderConfig(t *testing.T) {
	cfg := `
# comment
order value before key
order a before b in update_fn
`
	specs, err := ParseOrderConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %v", specs)
	}
	if specs[0] != (OrderSpec{Before: "value", After: "key"}) {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1] != (OrderSpec{Before: "a", After: "b", Scope: "update_fn"}) {
		t.Errorf("spec 1 = %+v", specs[1])
	}
}

func TestParseOrderConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"order value key",
		"order x after y",
		"nonsense line here now",
	} {
		if _, err := ParseOrderConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	specs := []OrderSpec{
		{Before: "v", After: "k"},
		{Before: "x", After: "y", Scope: "fn"},
	}
	out := FormatOrderConfig(specs)
	got, err := ParseOrderConfig(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != specs[0] || got[1] != specs[1] {
		t.Fatalf("round trip = %v", got)
	}
}
