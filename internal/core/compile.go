// Columnar compilation of the assessment inputs (DESIGN.md §13): the house
// policy is flattened once per Assessor into contiguous slices indexed by a
// dense attribute id, and each provider's effective preference tuples are
// flattened once per registration into parallel columns. The hot
// certification loop (columnar.go) then walks plain slices — no map
// iteration, no string hashing, no per-provider allocation — while
// AssessProvider remains the readable reference implementation the columns
// are compiled to agree with bit-for-bit.
package core

import (
	"repro/internal/privacy"
)

// CompiledPolicy is the house policy flattened for the columnar kernel:
// attribute and purpose strings interned to dense uint32 ids (attribute ids
// assigned in sorted-attribute order), policy tuple levels laid out in
// contiguous per-dimension slices, and per-attribute metadata (Σ^a, house
// purposes, retention ceiling) indexed by attribute id. Built once by
// NewAssessor and immutable afterwards, like the Assessor itself.
type CompiledPolicy struct {
	attrs    *privacy.Interner // attribute id ↔ canonical name, sorted order
	purposes *privacy.Interner // purpose id ↔ canonical purpose string

	attrSens []float64 // attribute id → Σ^a

	// polStart[id]..polStart[id+1] is attribute id's range in the flattened
	// policy columns below, preserving the policy's insertion order within
	// each attribute (the reference enumeration order).
	polStart   []uint32
	polPurpose []uint32 // purpose id per policy tuple
	polV       []int32  // visibility level per policy tuple
	polG       []int32  // granularity level per policy tuple
	polR       []int32  // retention level per policy tuple

	// housePurposes[id] is the sorted purpose set of attribute id — the set
	// the Sec. 5 implicit-zero rule synthesizes against.
	housePurposes [][]privacy.Purpose

	// retCeil[id] is the maximum retention level over attribute id's policy
	// tuples — the "kept while any purpose still needs it" ceiling retention
	// sweeps enforce per column.
	retCeil []privacy.Level
}

// compilePolicy flattens hp. attrSens must already be validated.
func compilePolicy(hp *privacy.HousePolicy, attrSens privacy.AttributeSensitivities) *CompiledPolicy {
	cp := &CompiledPolicy{
		attrs:    privacy.NewInterner(),
		purposes: privacy.NewInterner(),
	}
	attrs := hp.Attributes()
	cp.polStart = make([]uint32, 1, len(attrs)+1)
	for _, attr := range attrs {
		cp.attrs.Intern(attr)
		cp.attrSens = append(cp.attrSens, attrSens.Get(attr))
		pols := hp.ForAttribute(attr)
		ceil := privacy.LevelZero
		for _, pol := range pols {
			t := pol.Tuple
			cp.polPurpose = append(cp.polPurpose, cp.purposes.Intern(string(t.Purpose)))
			cp.polV = append(cp.polV, int32(t.Visibility))
			cp.polG = append(cp.polG, int32(t.Granularity))
			cp.polR = append(cp.polR, int32(t.Retention))
			if t.Retention > ceil {
				ceil = t.Retention
			}
		}
		cp.polStart = append(cp.polStart, uint32(len(cp.polV)))
		cp.housePurposes = append(cp.housePurposes, hp.PurposesFor(attr))
		cp.retCeil = append(cp.retCeil, ceil)
	}
	return cp
}

// NumAttrs returns the number of policy attributes (ids are 0..NumAttrs-1).
func (cp *CompiledPolicy) NumAttrs() int { return cp.attrs.Len() }

// AttrID resolves an attribute name (canonicalized) to its dense id.
func (cp *CompiledPolicy) AttrID(attr string) (uint32, bool) {
	return cp.attrs.Lookup(privacy.CanonAttr(attr))
}

// AttrName returns the canonical name of attribute id.
func (cp *CompiledPolicy) AttrName(id uint32) string { return cp.attrs.Name(id) }

// maskWords returns the number of uint64 cover-mask words each preference
// tuple of attribute id carries: one bit per policy tuple of the attribute,
// so ceil(n/64) words for n policy tuples.
func (cp *CompiledPolicy) maskWords(id uint32) int {
	return int(cp.polStart[id+1]-cp.polStart[id]+63) >> 6
}

// RetentionCeiling returns the maximum retention level over the attribute's
// policy tuples, and whether the policy covers the attribute at all — the
// per-column effective retention the sweep enforces (data is kept while any
// purpose still needs it).
func (cp *CompiledPolicy) RetentionCeiling(attr string) (privacy.Level, bool) {
	id, ok := cp.attrs.Lookup(privacy.CanonAttr(attr))
	if !ok {
		return privacy.LevelZero, false
	}
	return cp.retCeil[id], true
}

// CompiledPrefs is one provider's effective preference tuples flattened
// into parallel columns in the reference enumeration order: attributes in
// id (= sorted) order; within an attribute, explicit tuples in insertion
// order followed by Sec. 5 implicit zeros in sorted house-purpose order.
// Tuples that can never pair with a policy tuple (uncovered attribute or
// purpose) are dropped at compile time — they contribute nothing in the
// reference walk either.
//
// A CompiledPrefs is immutable once published (the owning store installs a
// freshly compiled value on every mutation) and valid only against the
// Assessor whose CompiledPolicy it was compiled from; AssessRow and
// BindingFor check that identity and recompile a stale or nil value.
type CompiledPrefs struct {
	Provider  string
	Threshold float64
	// PrefsVersion is the registration counter the columns were compiled
	// from, stamped by the owning store (internal/ppdb) under its shard
	// lock; with the policy identity below it versions the compiled row the
	// same way the ledger keys its memoized reports.
	PrefsVersion uint64

	policy *CompiledPolicy // compile-time policy identity

	// Hot columns, one entry per effective preference tuple.
	attrID []uint32  // dense attribute id (indexes the policy's columns)
	prefV  []int32   // visibility level
	prefG  []int32   // granularity level
	prefR  []int32   // retention level
	sVal   []float64 // s_i^a (value sensitivity) resolved per purpose
	sV     []float64 // s_i^a[V]
	sG     []float64 // s_i^a[G]
	sR     []float64 // s_i^a[R]
	// cover holds the purpose cover masks, maskWords(attrID[i]) words per
	// tuple laid end to end in tuple order: bit j of a tuple's mask (word
	// j/64, bit j%64) set means the tuple is comparable (Eq. 13, under the
	// assessor's matcher) with the j-th policy tuple of its attribute's
	// range. Computed once here so the kernel does no purpose matching.
	cover []uint64
	// implicit records whether the tuple was synthesized by the Sec. 5 rule.
	implicit []bool
	// purpose is the cold column: the tuple's purpose string, needed only
	// when a conflict is materialized into a PairConflict.
	purpose []privacy.Purpose
}

// Len returns the number of compiled effective preference tuples.
func (c *CompiledPrefs) Len() int { return len(c.attrID) }

// CurrentFor reports whether the columns were compiled against a's policy —
// the validity check AssessRow applies before trusting them.
func (c *CompiledPrefs) CurrentFor(a *Assessor) bool {
	return c != nil && c.policy == a.compiled
}

// Compile flattens one provider's preferences into the columnar layout for
// this assessor's policy; it returns nil only for nil p. The result
// references p's strings but never p itself, so later mutations of p do not
// corrupt the columns as long as the owning store replaces (rather than
// edits) registered preferences — the convention internal/ppdb already
// follows.
func (a *Assessor) Compile(p *privacy.Prefs) *CompiledPrefs {
	if p == nil {
		return nil
	}
	cp := a.compiled
	m := a.opts.Matcher
	if m == nil {
		m = privacy.EqualityMatcher{}
	}
	c := &CompiledPrefs{Provider: p.Provider, Threshold: p.Threshold, policy: cp}
	for id := 0; id < cp.attrs.Len(); id++ {
		attr := cp.attrs.Name(uint32(id))
		start, end := cp.polStart[id], cp.polStart[id+1]
		if start == end {
			continue
		}
		nw := cp.maskWords(uint32(id))
		explicit := len(p.ForAttribute(attr))
		for idx, pref := range a.effectivePrefs(p, attr) {
			off := len(c.cover)
			for k := 0; k < nw; k++ {
				c.cover = append(c.cover, 0)
			}
			covered := false
			for j := start; j < end; j++ {
				if m.Covers(pref.Tuple.Purpose, privacy.Purpose(cp.purposes.Name(cp.polPurpose[j]))) {
					k := j - start
					c.cover[off+int(k>>6)] |= 1 << (k & 63)
					covered = true
				}
			}
			if !covered {
				c.cover = c.cover[:off]
				continue // never comparable; contributes nothing (Eq. 13)
			}
			sens := p.Sensitivity(attr, pref.Tuple.Purpose)
			c.attrID = append(c.attrID, uint32(id))
			c.prefV = append(c.prefV, int32(pref.Tuple.Visibility))
			c.prefG = append(c.prefG, int32(pref.Tuple.Granularity))
			c.prefR = append(c.prefR, int32(pref.Tuple.Retention))
			c.sVal = append(c.sVal, sens.Value)
			c.sV = append(c.sV, sens.Visibility)
			c.sG = append(c.sG, sens.Granularity)
			c.sR = append(c.sR, sens.Retention)
			// EffectiveFor returns explicit tuples first, then synthesized
			// zeros for house purposes no explicit tuple covers; a
			// synthesized purpose can never equal an explicit one (equality
			// implies coverage under every Matcher), so position alone
			// decides the reference's ImplicitZero flag.
			c.implicit = append(c.implicit, idx >= explicit)
			c.purpose = append(c.purpose, pref.Tuple.Purpose)
		}
	}
	return c
}
