// Per-datum enforcement lookups over the compiled columns (DESIGN.md §15):
// the query executor (internal/query) resolves each disclosed cell to one
// (attribute, policy tuple) coordinate at plan time, then asks here for the
// most restrictive covering preference levels per row. Both lookups are
// id-indexed walks over the flattened columns of compile.go — no map
// iteration and no purpose matching on the hot path (the cover masks
// precomputed at registration already encode Eq. 13 comparability).
package core

import (
	"repro/internal/privacy"
)

// PolicyTupleRef locates the single policy tuple governing one
// (attribute, purpose) coordinate: the attribute's dense id, the tuple's
// offset within the attribute's policy range (the bit position preference
// cover masks are keyed on), and the tuple itself.
type PolicyTupleRef struct {
	Attr   string // canonical attribute name
	AttrID uint32
	Index  uint32 // offset within the attribute's policy range
	Tuple  privacy.Tuple
}

// FindPolicyTuple resolves the governing policy tuple for an
// (attribute, purpose) pair under the assessor's matcher semantics: an
// exact-purpose tuple wins first (in policy insertion order), then — with a
// lattice matcher — the first tuple whose stated purpose covers the
// requested one. This is the plan-time gate: no tuple means the purpose is
// unstated for the attribute and the access must be refused outright.
func (a *Assessor) FindPolicyTuple(attr string, pr privacy.Purpose) (PolicyTupleRef, bool) {
	cp := a.compiled
	id, ok := cp.AttrID(attr)
	if !ok {
		return PolicyTupleRef{}, false
	}
	pr = pr.Normalize()
	start, end := cp.polStart[id], cp.polStart[id+1]
	for j := start; j < end; j++ {
		if privacy.Purpose(cp.purposes.Name(cp.polPurpose[j])) == pr {
			return cp.tupleRef(id, j), true
		}
	}
	if m := a.opts.Matcher; m != nil {
		for j := start; j < end; j++ {
			if m.Covers(privacy.Purpose(cp.purposes.Name(cp.polPurpose[j])), pr) {
				return cp.tupleRef(id, j), true
			}
		}
	}
	return PolicyTupleRef{}, false
}

// tupleRef materializes the ref for policy column j of attribute id.
func (cp *CompiledPolicy) tupleRef(id, j uint32) PolicyTupleRef {
	return PolicyTupleRef{
		Attr:   cp.attrs.Name(id),
		AttrID: id,
		Index:  j - cp.polStart[id],
		Tuple: privacy.Tuple{
			Purpose:     privacy.Purpose(cp.purposes.Name(cp.polPurpose[j])),
			Visibility:  privacy.Level(cp.polV[j]),
			Granularity: privacy.Level(cp.polG[j]),
			Retention:   privacy.Level(cp.polR[j]),
		},
	}
}

// PrefBinding is the per-datum preference constraint at one policy
// coordinate: along each ordered dimension, the minimum level over the
// provider's preference tuples comparable (Eq. 13) with the policy tuple,
// plus the binding tuple itself so an enforcement decision can be traced to
// its violating (pref, policy) pair. Found is false when no preference
// tuple covers the coordinate (only possible with implicit zeros disabled
// or a purpose outside the provider's stated set) — the policy alone then
// bounds the disclosure.
type PrefBinding struct {
	Found   bool
	V, G, R privacy.Level
	// VPref/GPref/RPref are the preference tuples that set each minimum
	// (the first in reference enumeration order on ties).
	VPref, GPref, RPref privacy.Tuple
	// VImplicit/GImplicit/RImplicit mark binding tuples synthesized by the
	// Sec. 5 implicit-zero rule.
	VImplicit, GImplicit, RImplicit bool
}

// BindingFor computes the preference binding for provider p at policy
// coordinate ref, which must come from this assessor's FindPolicyTuple. It
// walks the provider's compiled columns, recompiling them from p first when
// c is nil or stale — AssessRow's rule. Tuples are folded in reference
// enumeration order, so tie-broken binding tuples match the reference walk.
func (a *Assessor) BindingFor(p *privacy.Prefs, c *CompiledPrefs, ref PolicyTupleRef) PrefBinding {
	if !c.CurrentFor(a) {
		c = a.Compile(p)
	}
	var b PrefBinding
	if c == nil {
		return b
	}
	// Fold the attribute's tuples whose cover mask includes the policy
	// tuple, tracking each tuple's mask offset; attribute ids ascend along
	// the columns, so the walk stops past ref's attribute.
	cp := c.policy
	word, bit := int(ref.Index>>6), uint64(1)<<(ref.Index&63)
	off := 0
	for i, aid := range c.attrID {
		if aid > ref.AttrID {
			break
		}
		if aid == ref.AttrID && c.cover[off+word]&bit != 0 {
			tup := privacy.Tuple{
				Purpose:     c.purpose[i],
				Visibility:  privacy.Level(c.prefV[i]),
				Granularity: privacy.Level(c.prefG[i]),
				Retention:   privacy.Level(c.prefR[i]),
			}
			b.fold(tup, c.implicit[i])
		}
		off += cp.maskWords(aid)
	}
	return b
}

// fold accumulates one covering preference tuple into the binding, keeping
// strict minima so the first tuple in enumeration order wins ties.
func (b *PrefBinding) fold(tup privacy.Tuple, implicit bool) {
	if !b.Found {
		*b = PrefBinding{
			Found: true,
			V:     tup.Visibility, G: tup.Granularity, R: tup.Retention,
			VPref: tup, GPref: tup, RPref: tup,
			VImplicit: implicit, GImplicit: implicit, RImplicit: implicit,
		}
		return
	}
	if tup.Visibility < b.V {
		b.V, b.VPref, b.VImplicit = tup.Visibility, tup, implicit
	}
	if tup.Granularity < b.G {
		b.G, b.GPref, b.GImplicit = tup.Granularity, tup, implicit
	}
	if tup.Retention < b.R {
		b.R, b.RPref, b.RImplicit = tup.Retention, tup, implicit
	}
}
