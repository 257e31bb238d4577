// Package features implements the paper's feature pipeline (Sect. III):
// a data-driven bag-of-words vocabulary over the augmented log fields, a
// per-transaction feature extractor, and the sliding-window composer that
// aggregates transaction vectors into the window vectors the one-class
// classifiers consume.
package features

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// Group identifies a feature-column group; the groups mirror the rows of
// Table I in the paper.
type Group int

// Feature groups in column-layout order.
const (
	GroupAction Group = iota
	GroupScheme
	GroupPublicFlag
	GroupReputationRisk
	GroupReputationVerified
	GroupCategory
	GroupSuperType
	GroupSubType
	GroupAppType
	numGroups
)

var groupNames = [numGroups]string{
	"http action", "uri scheme", "public address flag", "reputation",
	"reputation verified", "category", "supertype", "subtype",
	"application type",
}

// String returns the Table I row label for g.
func (g Group) String() string {
	if g < 0 || g >= numGroups {
		return fmt.Sprintf("group(%d)", int(g))
	}
	return groupNames[g]
}

// Vocabulary maps log-field values to feature columns. The HTTP-action and
// URI-scheme groups and the three numeric columns are fixed; the category,
// super-type, sub-type and application-type groups contain exactly the
// values observed in the corpus the vocabulary was built from (Sect. IV-A:
// the vendor dataset yields 843 columns this way).
type Vocabulary struct {
	actions  map[string]int
	schemes  map[string]int
	colPub   int
	colRisk  int
	colVerif int
	cats     map[string]int
	supers   map[string]int
	subs     map[string]int
	apps     map[string]int
	size     int
	numeric  map[int32]bool
	fp       Fingerprint

	// scratch pools the window-build scratch of every Streamer on this
	// vocabulary, so a live streamer holds none.
	scratch *scratchPool
}

// Build constructs a vocabulary from a corpus of transactions. Column
// assignment is deterministic: fixed groups first, then each data-driven
// group with its observed values in sorted order.
func Build(txs []weblog.Transaction) *Vocabulary {
	catSet := map[string]bool{}
	superSet := map[string]bool{}
	subSet := map[string]bool{}
	appSet := map[string]bool{}
	for i := range txs {
		tx := &txs[i]
		if tx.Category != "" {
			catSet[tx.Category] = true
		}
		if !tx.MediaType.IsZero() {
			superSet[tx.MediaType.Super] = true
			subSet[tx.MediaType.Sub] = true
		}
		if tx.AppType != "" {
			appSet[tx.AppType] = true
		}
	}
	return assemble(setToSorted(catSet), setToSorted(superSet), setToSorted(subSet), setToSorted(appSet))
}

// BuildFromDataset is Build over every transaction in ds.
func BuildFromDataset(ds *weblog.Dataset) *Vocabulary {
	return Build(ds.Transactions)
}

// BuildFull constructs a vocabulary covering an entire taxonomy rather than
// an observed corpus; useful when train/test vocabularies must coincide by
// construction.
func BuildFull(tax *taxonomy.Taxonomy) *Vocabulary {
	return assemble(tax.Categories, tax.SuperTypes, tax.SubTypes, tax.AppTypes)
}

func assemble(cats, supers, subs, apps []string) *Vocabulary {
	v := &Vocabulary{
		actions: make(map[string]int, len(taxonomy.Actions)),
		schemes: make(map[string]int, len(taxonomy.Schemes)),
		cats:    make(map[string]int, len(cats)),
		supers:  make(map[string]int, len(supers)),
		subs:    make(map[string]int, len(subs)),
		apps:    make(map[string]int, len(apps)),
		numeric: make(map[int32]bool, 3),
		scratch: new(scratchPool),
	}
	col := 0
	for _, a := range taxonomy.Actions {
		v.actions[a] = col
		col++
	}
	for _, s := range taxonomy.Schemes {
		v.schemes[s] = col
		col++
	}
	v.colPub = col
	col++
	v.colRisk = col
	col++
	v.colVerif = col
	col++
	v.numeric[int32(v.colPub)] = true
	v.numeric[int32(v.colRisk)] = true
	v.numeric[int32(v.colVerif)] = true
	for _, c := range cats {
		v.cats[c] = col
		col++
	}
	for _, s := range supers {
		v.supers[s] = col
		col++
	}
	for _, s := range subs {
		v.subs[s] = col
		col++
	}
	for _, a := range apps {
		v.apps[a] = col
		col++
	}
	v.size = col
	v.fp = v.fingerprint()
	return v
}

func setToSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of feature columns.
func (v *Vocabulary) Size() int { return v.size }

// NumericCols returns the set of mean-aggregated columns (the public flag
// and the two reputation features; everything else ORs). The map is shared:
// callers must not mutate it.
func (v *Vocabulary) NumericCols() map[int32]bool { return v.numeric }

// GroupCounts returns the number of columns per group in Table I order,
// plus the total, reproducing Table I of the paper.
func (v *Vocabulary) GroupCounts() (counts [9]int, total int) {
	counts = [9]int{
		len(v.actions), len(v.schemes), 1, 1, 1,
		len(v.cats), len(v.supers), len(v.subs), len(v.apps),
	}
	return counts, v.size
}

// Extract encodes one transaction as a sparse feature vector per
// Sect. III-B: bag-of-words presence columns for action, scheme, category,
// media super/sub-type and application type; numeric columns for the
// public-destination flag, reputation risk and reputation-verified.
// Values absent from the vocabulary contribute no column.
func (v *Vocabulary) Extract(tx *weblog.Transaction) sparse.Vector {
	out := sparse.Vector{Idx: make([]int32, 0, 10), Val: make([]float64, 0, 10)}
	v.ExtractInto(tx, &out)
	return out
}

// ExtractInto is Extract writing into dst's backing arrays (length reset to
// zero, grown only when the transaction has more columns than any before).
// Once dst has warmed up, a call allocates nothing. dst is only valid until
// the next ExtractInto with the same destination.
func (v *Vocabulary) ExtractInto(tx *weblog.Transaction, dst *sparse.Vector) {
	r := v.record(tx)
	r.vectorInto(dst)
}

// record extracts tx into a Record, leaving its Offset and User zero. A
// transaction never yields a zero value: presence columns are 1 by
// construction and a zero reputation risk is skipped like an absent
// column.
func (v *Vocabulary) record(tx *weblog.Transaction) Record {
	r := Record{Cols: noCols}
	// assemble lays the fixed groups out in taxonomy order from column 0
	// in every vocabulary; a scan of these few constants beats a map
	// lookup on the feed path.
	for i, a := range taxonomy.Actions {
		if tx.Action == a {
			r.Cols[GroupAction] = int32(i)
			break
		}
	}
	for i, sc := range taxonomy.Schemes {
		if tx.Scheme == sc {
			r.Cols[GroupScheme] = int32(len(taxonomy.Actions) + i)
			break
		}
	}
	if tx.Private {
		r.Cols[GroupPublicFlag] = int32(v.colPub)
	}
	if risk := tx.Reputation.Risk(); risk != 0 {
		r.Cols[GroupReputationRisk] = int32(v.colRisk)
		r.Risk = risk
	}
	if tx.Reputation.Verified() {
		r.Cols[GroupReputationVerified] = int32(v.colVerif)
	}
	if c, ok := v.cats[tx.Category]; ok {
		r.Cols[GroupCategory] = int32(c)
	}
	if !tx.MediaType.IsZero() {
		if c, ok := v.supers[tx.MediaType.Super]; ok {
			r.Cols[GroupSuperType] = int32(c)
		}
		if c, ok := v.subs[tx.MediaType.Sub]; ok {
			r.Cols[GroupSubType] = int32(c)
		}
	}
	if c, ok := v.apps[tx.AppType]; ok {
		r.Cols[GroupAppType] = int32(c)
	}
	return r
}

// Fingerprint identifies a vocabulary's column assignment: its size and a
// 64-bit FNV-1a hash over every (group, value, column) triple. Buffered
// Records hold column ids, so state carrying them is only meaningful
// under a vocabulary with the same fingerprint.
type Fingerprint struct {
	Size int
	Hash uint64
}

// Fingerprint returns v's fingerprint.
func (v *Vocabulary) Fingerprint() Fingerprint { return v.fp }

// fingerprint computes v's fingerprint from its column maps.
func (v *Vocabulary) fingerprint() Fingerprint {
	h := fnv.New64a()
	var buf []byte
	for g, m := range []map[string]int{v.actions, v.schemes, v.cats, v.supers, v.subs, v.apps} {
		vals := make([]string, 0, len(m))
		for val := range m {
			vals = append(vals, val)
		}
		sort.Strings(vals)
		for _, val := range vals {
			buf = binary.AppendUvarint(append(buf[:0], byte(g)), uint64(len(val)))
			buf = binary.AppendUvarint(append(buf, val...), uint64(m[val]))
			h.Write(buf)
		}
	}
	buf = binary.AppendUvarint(buf[:0], uint64(v.colPub))
	buf = binary.AppendUvarint(buf, uint64(v.colRisk))
	buf = binary.AppendUvarint(buf, uint64(v.colVerif))
	h.Write(buf)
	return Fingerprint{Size: v.size, Hash: h.Sum64()}
}

// vocabularyJSON is the serialized form of a Vocabulary. Explicit
// value→column maps are stored (rather than ordered pools) because
// Extend-ed vocabularies interleave group columns; the fixed layout
// (actions, schemes, numeric columns) is reconstructed.
type vocabularyJSON struct {
	Categories map[string]int `json:"categories"`
	SuperTypes map[string]int `json:"super_types"`
	SubTypes   map[string]int `json:"sub_types"`
	AppTypes   map[string]int `json:"app_types"`
	Size       int            `json:"size"`
}

// MarshalJSON serializes the vocabulary.
func (v *Vocabulary) MarshalJSON() ([]byte, error) {
	return json.Marshal(vocabularyJSON{
		Categories: v.cats,
		SuperTypes: v.supers,
		SubTypes:   v.subs,
		AppTypes:   v.apps,
		Size:       v.size,
	})
}

// UnmarshalJSON restores a vocabulary serialized by MarshalJSON and
// validates the column assignment.
func (v *Vocabulary) UnmarshalJSON(data []byte) error {
	var j vocabularyJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	base := assemble(nil, nil, nil, nil)
	base.cats = orEmpty(j.Categories)
	base.supers = orEmpty(j.SuperTypes)
	base.subs = orEmpty(j.SubTypes)
	base.apps = orEmpty(j.AppTypes)
	base.size = j.Size
	if err := base.validateColumns(); err != nil {
		return err
	}
	base.fp = base.fingerprint()
	*v = *base
	return nil
}

func orEmpty(m map[string]int) map[string]int {
	if m == nil {
		return map[string]int{}
	}
	return m
}

// validateColumns checks that data-driven columns are distinct, above the
// fixed region, and below size.
func (v *Vocabulary) validateColumns() error {
	const fixed = 9 // 4 actions + 2 schemes + 3 numeric
	if v.size < fixed {
		return fmt.Errorf("features: vocabulary size %d below fixed region %d", v.size, fixed)
	}
	seen := make(map[int]string, v.size)
	for _, group := range []map[string]int{v.cats, v.supers, v.subs, v.apps} {
		for val, col := range group {
			if col < fixed || col >= v.size {
				return fmt.Errorf("features: column %d for %q out of range [%d, %d)", col, val, fixed, v.size)
			}
			if prev, dup := seen[col]; dup {
				return fmt.Errorf("features: column %d assigned to both %q and %q", col, prev, val)
			}
			seen[col] = val
		}
	}
	return nil
}

// ColumnName returns a human-readable name for column i, for debugging and
// experiment reports.
func (v *Vocabulary) ColumnName(i int) string {
	switch i {
	case v.colPub:
		return "public-address-flag"
	case v.colRisk:
		return "reputation-risk"
	case v.colVerif:
		return "reputation-verified"
	}
	for _, g := range []struct {
		prefix string
		m      map[string]int
	}{
		{"action:", v.actions}, {"scheme:", v.schemes}, {"category:", v.cats},
		{"supertype:", v.supers}, {"subtype:", v.subs}, {"application:", v.apps},
	} {
		for name, col := range g.m {
			if col == i {
				return g.prefix + name
			}
		}
	}
	return fmt.Sprintf("column(%d)", i)
}

// Extend returns a vocabulary containing every column of v — with
// unchanged column ids — plus new columns for label values observed in
// txs but absent from v. Models trained against v stay valid against the
// extended vocabulary (their support vectors reference unchanged ids),
// which is how a long-running deployment absorbs new services without
// immediate retraining.
func (v *Vocabulary) Extend(txs []weblog.Transaction) *Vocabulary {
	out := &Vocabulary{
		actions:  v.actions,
		schemes:  v.schemes,
		colPub:   v.colPub,
		colRisk:  v.colRisk,
		colVerif: v.colVerif,
		cats:     cloneCols(v.cats),
		supers:   cloneCols(v.supers),
		subs:     cloneCols(v.subs),
		apps:     cloneCols(v.apps),
		size:     v.size,
		numeric:  v.numeric,
		scratch:  new(scratchPool),
	}
	// Collect new values in first-seen order, then append columns in
	// sorted order per group for determinism.
	newCats := map[string]bool{}
	newSupers := map[string]bool{}
	newSubs := map[string]bool{}
	newApps := map[string]bool{}
	for i := range txs {
		tx := &txs[i]
		if tx.Category != "" {
			if _, ok := out.cats[tx.Category]; !ok {
				newCats[tx.Category] = true
			}
		}
		if !tx.MediaType.IsZero() {
			if _, ok := out.supers[tx.MediaType.Super]; !ok {
				newSupers[tx.MediaType.Super] = true
			}
			if _, ok := out.subs[tx.MediaType.Sub]; !ok {
				newSubs[tx.MediaType.Sub] = true
			}
		}
		if tx.AppType != "" {
			if _, ok := out.apps[tx.AppType]; !ok {
				newApps[tx.AppType] = true
			}
		}
	}
	for _, group := range []struct {
		fresh map[string]bool
		into  map[string]int
	}{
		{newCats, out.cats}, {newSupers, out.supers},
		{newSubs, out.subs}, {newApps, out.apps},
	} {
		for _, val := range setToSorted(group.fresh) {
			group.into[val] = out.size
			out.size++
		}
	}
	out.fp = out.fingerprint()
	return out
}

func cloneCols(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
