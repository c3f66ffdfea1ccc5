// Package datagen generates the synthetic datasets that stand in for the
// paper's DBLP, IMDB and US-Patent databases (§5).
//
// The real dumps are not redistributable, and the algorithms' behaviour
// depends only on (a) graph topology — entity tables linked through
// relationship tables, hub nodes with very large fan-in, citation links —
// and (b) keyword selectivity. The generators reproduce both knobs
// deterministically: background text is drawn from a Zipfian vocabulary
// (frequent terms like "database" naturally have large origin sets), and a
// set of *planted band terms* is injected with exact occurrence counts so
// the tiny/small/medium/large selectivity categories of §5.6 exist by
// construction at every scale. Planted combo seeds guarantee that the
// workload generator can always build queries whose keywords co-occur in a
// small join tree, mirroring how the paper derives queries from SQL result
// rows (§5.4).
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"banks/internal/relational"
)

// Band is a keyword-selectivity category from §5.6.
type Band int

// Selectivity bands. The paper's thresholds on DBLP-scale data (~500k
// papers): tiny 1–500, small 1000–2000, medium 2500–5000, large >7000
// matching tuples. Generators scale these proportionally to entity count.
const (
	BandTiny Band = iota
	BandSmall
	BandMedium
	BandLarge
	numBands
)

// String returns the one-letter category name used in Figure 6(c).
func (b Band) String() string {
	switch b {
	case BandTiny:
		return "T"
	case BandSmall:
		return "S"
	case BandMedium:
		return "M"
	case BandLarge:
		return "L"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// bandCount returns the planted occurrence count for band b when the
// primary entity table has n rows. Fractions are chosen so that at the
// paper's DBLP scale (~500k papers) the counts land inside the paper's
// band ranges.
func bandCount(b Band, n int) int {
	frac := map[Band]float64{
		BandTiny:   0.0004, // 200 at 500k
		BandSmall:  0.003,  // 1500 at 500k
		BandMedium: 0.0075, // 3750 at 500k
		BandLarge:  0.02,   // 10000 at 500k
	}[b]
	c := int(frac * float64(n))
	if c < 2 {
		c = 2
	}
	return c
}

// bandTermsPerSide is how many distinct planted terms each band gets on
// each side (entity titles vs. name tables).
var bandTermsPerSide = map[Band]int{
	BandTiny:   20,
	BandSmall:  10,
	BandMedium: 8,
	BandLarge:  6,
}

var bandPrefix = map[Band]string{
	BandTiny:   "xqtiny",
	BandSmall:  "xqsmall",
	BandMedium: "xqmed",
	BandLarge:  "xqbig",
}

// BandTerm is a planted term with a known selectivity band and the table
// it was planted into.
type BandTerm struct {
	Term  string
	Table string
	Band  Band
	// Count is the exact number of tuples the term was planted into.
	Count int
}

// ComboSeed records a pair of linked tuples that was seeded with band
// terms so that a 3-node answer tree (entity ← link → name-entity)
// covering four keywords of the given bands is guaranteed to exist
// (Figure 6(c) workload).
type ComboSeed struct {
	Combo [4]Band
	// EntityTerms are planted in the entity tuple (e.g. paper title);
	// NameTerms in the linked name tuple (e.g. author name).
	EntityTerms [2]string
	NameTerms   [2]string
	// EntityRow / NameRow locate the seeded tuples.
	EntityTable string
	EntityRow   int32
	NameTable   string
	NameRow     int32
}

// Dataset bundles a generated database with its planting metadata.
type Dataset struct {
	Name string
	DB   *relational.Database
	// Bands lists all planted band terms.
	Bands []BandTerm
	// Seeds lists the planted Figure-6(c) combo seeds.
	Seeds []ComboSeed
	// EntityTable and NameTable are the tables band terms were planted
	// into (e.g. "paper" and "author"), and LinkTable the relationship
	// table connecting them (e.g. "writes") with LinkEntityFK/LinkNameFK
	// its FK column indexes.
	EntityTable, NameTable, LinkTable string
	LinkEntityFK, LinkNameFK          int
}

// BandTermsFor returns the planted terms of band b in the named table.
func (d *Dataset) BandTermsFor(table string, b Band) []string {
	var out []string
	for _, bt := range d.Bands {
		if bt.Table == table && bt.Band == b {
			out = append(out, bt.Term)
		}
	}
	return out
}

// --- text machinery ---

var consonants = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
	"n", "p", "r", "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "gr",
	"kh", "pr", "sh", "st", "th", "tr"}
var vowels = []string{"a", "e", "i", "o", "u", "ai", "ea", "ou"}

// syllable returns a pseudo-syllable for index i, deterministic.
func syllable(i int) string {
	c := consonants[i%len(consonants)]
	v := vowels[(i/len(consonants))%len(vowels)]
	return c + v
}

// makeNamePool generates n distinct capitalized pseudo-names.
func makeNamePool(n int, syllables int) []string {
	pool := make([]string, n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		x := i
		for s := 0; s < syllables; s++ {
			sb.WriteString(syllable(x % 240))
			x = x/240 + 7*s + i%13
		}
		name := sb.String()
		pool[i] = strings.ToUpper(name[:1]) + name[1:] + suffix(i)
	}
	return pool
}

// suffix disambiguates pool entries that would otherwise collide.
func suffix(i int) string {
	if i < 240*240 {
		return ""
	}
	return fmt.Sprintf("%d", i)
}

// domainWords gives the vocabulary some realistic database-flavoured terms
// so ad-hoc demo queries (e.g. "transaction recovery") match something.
var domainWords = []string{
	"database", "transaction", "query", "optimization", "recovery", "index",
	"keyword", "search", "graph", "parametric", "xml", "schema", "join",
	"concurrency", "storage", "distributed", "stream", "mining", "web",
	"semantic", "spatial", "temporal", "parallel", "relational", "object",
	"cache", "logging", "replication", "cluster", "ranking",
}

// vocab is a Zipf-sampled word list: a few hundred generated words plus
// the domain words, with rank-frequency following a Zipf law so that
// low-rank words are "large origin" terms and tail words are rare.
type vocab struct {
	words []string
	zipf  *rand.Zipf
}

func newVocab(rng *rand.Rand, size int) *vocab {
	words := make([]string, 0, size)
	words = append(words, domainWords...)
	for i := len(words); i < size; i++ {
		words = append(words, "w"+syllable(i%240)+syllable((i/240)%240)+fmt.Sprintf("%d", i/57600))
	}
	return &vocab{
		words: words,
		zipf:  rand.NewZipf(rng, 1.07, 1.0, uint64(size-1)),
	}
}

// title samples nWords words (with replacement) into a space-separated
// pseudo-title.
func (v *vocab) title(nWords int) string {
	var sb strings.Builder
	for i := 0; i < nWords; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.words[v.zipf.Uint64()])
	}
	return sb.String()
}

// bandTermName returns the j-th planted term of band b on the given side
// ("p" for entity/title side, "a" for name side).
func bandTermName(b Band, side string, j int) string {
	return fmt.Sprintf("%s%02d%s", bandPrefix[b], j, side)
}

// planner tracks how many occurrences of each planted term have been used
// so far, so combo seeding and top-up together hit the exact target count.
type planner struct {
	target map[string]int
	used   map[string]int
	terms  map[Band][]string // per band, this side's terms
	side   string
	table  string
}

func newPlanner(table, side string, entityCount int) *planner {
	p := &planner{
		target: make(map[string]int),
		used:   make(map[string]int),
		terms:  make(map[Band][]string),
		side:   side,
		table:  table,
	}
	for b := BandTiny; b < numBands; b++ {
		n := bandTermsPerSide[b]
		cnt := bandCount(b, entityCount)
		for j := 0; j < n; j++ {
			term := bandTermName(b, side, j)
			p.terms[b] = append(p.terms[b], term)
			p.target[term] = cnt
		}
	}
	return p
}

// take returns a term of band b that still has unused occurrences,
// consuming one occurrence. It falls back to round-robin if all are
// exhausted (the extra occurrences keep the term within its band since
// combo seeding uses far fewer slots than the band count).
func (p *planner) take(rng *rand.Rand, b Band) string {
	terms := p.terms[b]
	start := rng.Intn(len(terms))
	for i := 0; i < len(terms); i++ {
		t := terms[(start+i)%len(terms)]
		if p.used[t] < p.target[t] {
			p.used[t]++
			return t
		}
	}
	t := terms[start]
	p.used[t]++
	return t
}

// bandTermsMeta returns the BandTerm records for this planner's side with
// final counts.
func (p *planner) bandTermsMeta() []BandTerm {
	var out []BandTerm
	for b := BandTiny; b < numBands; b++ {
		for _, t := range p.terms[b] {
			c := p.used[t]
			if c < p.target[t] {
				c = p.target[t]
			}
			out = append(out, BandTerm{Term: t, Table: p.table, Band: b, Count: c})
		}
	}
	return out
}

// remaining returns how many top-up occurrences term t still needs.
func (p *planner) remaining(t string) int {
	r := p.target[t] - p.used[t]
	if r < 0 {
		return 0
	}
	return r
}

// allCombos returns the eight Figure-6(c) band combinations, reconstructed
// from the paper's text (the figure's x-axis labels are a typesetting
// error).
func allCombos() [][4]Band {
	T, S, M, L := BandTiny, BandSmall, BandMedium, BandLarge
	return [][4]Band{
		{T, T, T, T},
		{T, T, T, L},
		{T, T, L, L},
		{T, L, L, L},
		{T, S, M, L},
		{M, M, M, M},
		{M, L, L, L},
		{L, L, L, L},
	}
}

// Combos exposes the Figure-6(c) band combinations for the workload and
// experiment packages.
func Combos() [][4]Band { return allCombos() }

// ComboLabel formats a combo like "(T,T,T,L)".
func ComboLabel(c [4]Band) string {
	return fmt.Sprintf("(%s,%s,%s,%s)", c[0], c[1], c[2], c[3])
}
