// Package rules defines detection-rule configuration shared by detectors:
// which of the paper's nine generalized rules are active, which persistency
// model the program under test uses, and the programmer-supplied persist
// order specifications (§4.5, §8) with their configuration-file syntax.
package rules

import (
	"fmt"

	"pmdebugger/internal/report"
)

// Model is the persistency model of the program under test (§2.3).
type Model uint8

// The three persistency models.
const (
	// Strict unifies consistency and persistency: any two persists are
	// ordered by volatile memory order.
	Strict Model = iota
	// Epoch separates execution into persist epochs delineated by barriers;
	// persists within an epoch may reorder.
	Epoch
	// Strand minimizes persist constraints: strands are concurrent unless
	// explicitly joined.
	Strand
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case Strict:
		return "strict"
	case Epoch:
		return "epoch"
	case Strand:
		return "strand"
	default:
		return "model(?)"
	}
}

// ParseModel is the inverse of Model.String.
func ParseModel(s string) (Model, error) {
	for _, m := range []Model{Strict, Epoch, Strand} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (strict, epoch or strand)", s)
}

// Relaxed reports whether the model is one of the relaxed persistency
// models (epoch or strand).
func (m Model) Relaxed() bool { return m == Epoch || m == Strand }

// Set is a bitmask of enabled detection rules. Each rule corresponds to one
// bug type of Table 6.
type Set uint32

// The rule bits, one per bug type.
const (
	RuleNoDurability Set = 1 << iota
	RuleMultipleOverwrites
	RuleNoOrder
	RuleRedundantFlush
	RuleFlushNothing
	RuleRedundantLogging
	RuleLackDurabilityInEpoch
	RuleRedundantEpochFence
	RuleLackOrderingInStrands
	RuleCrossFailure
)

// All enables every rule.
const All Set = RuleNoDurability | RuleMultipleOverwrites | RuleNoOrder |
	RuleRedundantFlush | RuleFlushNothing | RuleRedundantLogging |
	RuleLackDurabilityInEpoch | RuleRedundantEpochFence |
	RuleLackOrderingInStrands | RuleCrossFailure

// Has reports whether rule r is enabled.
func (s Set) Has(r Set) bool { return s&r != 0 }

// ForBug maps a bug type to its rule bit.
func ForBug(t report.BugType) Set {
	switch t {
	case report.NoDurability:
		return RuleNoDurability
	case report.MultipleOverwrites:
		return RuleMultipleOverwrites
	case report.NoOrderGuarantee:
		return RuleNoOrder
	case report.RedundantFlush:
		return RuleRedundantFlush
	case report.FlushNothing:
		return RuleFlushNothing
	case report.RedundantLogging:
		return RuleRedundantLogging
	case report.LackDurabilityInEpoch:
		return RuleLackDurabilityInEpoch
	case report.RedundantEpochFence:
		return RuleRedundantEpochFence
	case report.LackOrderingInStrands:
		return RuleLackOrderingInStrands
	case report.CrossFailureSemantic:
		return RuleCrossFailure
	default:
		return 0
	}
}

// Default returns the rule set PMDebugger enables for a given persistency
// model: the five common rules always; the epoch rules under the epoch
// model; the strand rule under the strand model. Multiple-overwrites is
// disabled under relaxed models because overwriting before durability is
// legal there (§4.5).
func Default(m Model) Set {
	s := RuleNoDurability | RuleNoOrder | RuleRedundantFlush | RuleFlushNothing
	switch m {
	case Strict:
		s |= RuleMultipleOverwrites
	case Epoch:
		s |= RuleRedundantLogging | RuleLackDurabilityInEpoch | RuleRedundantEpochFence
	case Strand:
		s |= RuleLackOrderingInStrands
	}
	return s
}
