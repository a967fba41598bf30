package imdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"jobench/internal/storage"
)

// Config controls data generation.
type Config struct {
	// Scale scales every table; 1.0 produces ~10,000 titles and ~450,000
	// rows total, preserving the real data set's relative table sizes
	// (cast_info ~14x title, movie_info ~6x, ...).
	Scale float64
	// Seed makes generation fully deterministic.
	Seed int64
	// Skew multiplies the Zipf-style exponent of the per-title popularity
	// weight that drives every FK fan-out. 0 (or 1.0) is the baseline —
	// byte-identical to the generator before the knob existed; >1 makes the
	// heavy tail heavier, <1 flattens it toward uniformity.
	Skew float64
	// Correlation scales the join-crossing correlations: the probability
	// that a movie_companies row draws its company from the title's
	// country-local pool (baseline 0.70) and that a cast_info row draws its
	// person locally (baseline 0.65). 0 (or 1.0) is the baseline; >1
	// tightens the correlation (probabilities are clamped below 0.99), <1
	// loosens it toward the independence that estimators assume.
	Correlation float64
}

// gen carries the generator state: one RNG and the latent per-entity
// variables that create the correlations the paper's estimators miss.
type gen struct {
	rng *rand.Rand
	cfg Config

	// Effective knob values (Config.Skew/Correlation applied to the
	// baseline constants). At the default knobs these equal the historical
	// constants bit-for-bit, so default generation is byte-identical.
	skewExp      float64 // popularity-weight exponent (baseline 1.05)
	companyLocal float64 // P(company from title's country pool), baseline 0.70
	personLocal  float64 // P(person from title's country pool), baseline 0.65

	nTitle, nCompany, nKeyword, nPerson, nChar int

	// Per-title latents.
	titlePop     []float64 // popularity drives every fan-out (correlated!)
	titleKind    []int     // index into kindTypes
	titleYear    []int64   // 0 = NULL
	titleCountry []int     // index into countries
	titleGenres  [][]int   // indexes into genres
	titleRating  []int64   // rating*10, 0 = absent
	titleVotes   []int64
	titleSequel  []bool

	// Per-company latents.
	companyCountry []int

	// Per-person latents.
	personPop     []float64
	personGender  []int // 0 male, 1 female, 2 NULL
	personCountry []int

	// Weighted sampling pools: persons by country, companies by country.
	personPool  map[int]*pool
	companyPool map[int]*pool
}

// pool supports weighted sampling (popular entities drawn more often).
type pool struct {
	ids []int64
	cum []float64 // cumulative weights
}

func (p *pool) add(id int64, w float64) {
	total := 0.0
	if len(p.cum) > 0 {
		total = p.cum[len(p.cum)-1]
	}
	p.ids = append(p.ids, id)
	p.cum = append(p.cum, total+w)
}

func (p *pool) sample(rng *rand.Rand) int64 {
	if len(p.ids) == 0 {
		return 0
	}
	u := rng.Float64() * p.cum[len(p.cum)-1]
	i := sort.SearchFloat64s(p.cum, u)
	if i >= len(p.ids) {
		i = len(p.ids) - 1
	}
	return p.ids[i]
}

// Generate builds the full 21-table database.
func Generate(cfg Config) *storage.Database {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	skew := cfg.Skew
	if skew <= 0 {
		skew = 1.0
	}
	corr := cfg.Correlation
	if corr <= 0 {
		corr = 1.0
	}
	g := &gen{
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		cfg:          cfg,
		skewExp:      1.05 * skew,
		companyLocal: math.Min(0.70*corr, 0.99),
		personLocal:  math.Min(0.65*corr, 0.99),
	}
	g.nTitle = max(300, int(10000*cfg.Scale))
	g.nCompany = max(60, g.nTitle/10)
	g.nKeyword = len(specialKeywords) + max(80, g.nTitle/8)
	g.nPerson = max(250, g.nTitle)
	g.nChar = max(150, g.nTitle/2)

	db := storage.NewDatabase()
	g.dimensionTables(db)
	g.titleTable(db)
	g.companyTable(db)
	g.keywordTable(db)
	g.personTables(db)
	g.movieCompanies(db)
	g.movieInfo(db)
	g.movieInfoIdx(db)
	g.movieKeyword(db)
	g.castInfo(db)
	g.movieLink(db)
	g.personInfo(db)
	g.completeCast(db)
	if err := db.Check(); err != nil {
		panic(fmt.Sprintf("imdb: generated inconsistent database: %v", err))
	}
	return db
}

// popWeight draws a heavy-tailed (Pareto-like) popularity weight >= 1.
// The same weight multiplies the fan-out of *every* satellite table of a
// title, which is exactly the positive correlation that makes independence-
// based join estimates systematically too low (paper §3.2). The exponent is
// the Skew knob (baseline 1.05).
func (g *gen) popWeight() float64 {
	w := math.Exp(g.rng.ExpFloat64() * g.skewExp)
	if w > 120 {
		w = 120
	}
	return w
}

// weightedPick selects an index from shares (which need not sum to 1).
func (g *gen) weightedPick(shares []float64) int {
	total := 0.0
	for _, s := range shares {
		total += s
	}
	u := g.rng.Float64() * total
	acc := 0.0
	for i, s := range shares {
		acc += s
		if u < acc {
			return i
		}
	}
	return len(shares) - 1
}

// poisson draws a Poisson variate (Knuth's method; our lambdas are small).
func (g *gen) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= g.rng.Float64()
	}
	return k - 1
}

func (g *gen) pickCountry() int {
	shares := make([]float64, len(countries))
	for i, c := range countries {
		shares[i] = c.share
	}
	return g.weightedPick(shares)
}

// dimensionTables fills the six small fixed dimension tables.
func (g *gen) dimensionTables(db *storage.Database) {
	add := func(name, valCol string, vals []string) {
		id := storage.NewIntColumn("id")
		v := storage.NewStringColumn(valCol)
		for i, s := range vals {
			id.AppendInt(int64(i + 1))
			v.AppendString(s)
		}
		db.Add(storage.NewTable(name, id, v))
	}
	add("kind_type", "kind", kindTypes)
	add("info_type", "info", infoTypes)
	add("company_type", "kind", companyTypes)
	add("role_type", "role", roleTypes)
	add("link_type", "link", linkTypes)
	add("comp_cast_type", "kind", compCastTypes)
}

func (g *gen) titleTable(db *storage.Database) {
	n := g.nTitle
	g.titlePop = make([]float64, n)
	g.titleKind = make([]int, n)
	g.titleYear = make([]int64, n)
	g.titleCountry = make([]int, n)
	g.titleGenres = make([][]int, n)
	g.titleRating = make([]int64, n)
	g.titleVotes = make([]int64, n)
	g.titleSequel = make([]bool, n)

	id := storage.NewIntColumn("id")
	title := storage.NewStringColumn("title")
	kindID := storage.NewIntColumn("kind_id")
	year := storage.NewIntColumn("production_year")
	season := storage.NewIntColumn("season_nr")
	episode := storage.NewIntColumn("episode_nr")

	genreIdx := make(map[string]int, len(genres))
	for i, s := range genres {
		genreIdx[s] = i
	}

	for i := 0; i < n; i++ {
		pop := g.popWeight()
		kind := g.weightedPick(kindShare)
		// Movies and tv series are more popular than episodes on average.
		if kind == 6 {
			pop = 1 + (pop-1)*0.4
		}
		g.titlePop[i] = pop
		g.titleKind[i] = kind

		// Year: skewed towards the present; episodes exist only after 1950.
		var y int64
		switch kind {
		case 6: // episode
			y = 2013 - int64(g.rng.ExpFloat64()*9)
			if y < 1950 {
				y = 1950 + int64(g.rng.Intn(20))
			}
		case 5: // video game
			y = 2013 - int64(g.rng.ExpFloat64()*7)
			if y < 1975 {
				y = 1975
			}
		default:
			y = 2013 - int64(g.rng.ExpFloat64()*22)
			if y < 1894 {
				y = 1894
			}
		}
		if g.rng.Float64() < 0.04 {
			y = 0 // NULL
		}
		g.titleYear[i] = y

		g.titleCountry[i] = g.pickCountry()

		// 1-3 genres; kind biases the primary genre.
		ng := 1 + g.poisson(0.6)
		if ng > 3 {
			ng = 3
		}
		seen := map[int]bool{}
		for k := 0; k < ng; k++ {
			var gi int
			if biased, ok := genreByKind[kind]; ok && g.rng.Float64() < 0.6 {
				gi = genreIdx[biased[g.rng.Intn(len(biased))]]
			} else {
				gi = g.weightedPick(genreShare)
			}
			if !seen[gi] {
				seen[gi] = true
				g.titleGenres[i] = append(g.titleGenres[i], gi)
			}
		}

		// Rating: present mostly for popular / US titles; value correlates
		// with popularity and genre.
		isUS := g.titleCountry[i] == 0
		pRated := 0.06 + 0.05*math.Min(pop, 10) + 0.10*b2f(isUS)
		if kind == 6 {
			pRated *= 0.35
		}
		if g.rng.Float64() < math.Min(0.95, pRated) {
			r := 6.3 + 0.45*math.Log(pop) + g.rng.NormFloat64()*1.1
			primary := g.titleGenres[i][0]
			if genres[primary] == "Horror" {
				r -= 0.8
			}
			if genres[primary] == "Documentary" || genres[primary] == "Biography" {
				r += 0.5
			}
			if r < 1 {
				r = 1
			}
			if r > 10 {
				r = 10
			}
			g.titleRating[i] = int64(math.Round(r * 10))
			g.titleVotes[i] = int64(5 + 12*pop*pop*math.Exp(g.rng.NormFloat64()*0.7))
		}
		g.titleSequel[i] = g.rng.Float64() < 0.05 && i > 10

		id.AppendInt(int64(i + 1))
		title.AppendString(g.makeTitle(i))
		kindID.AppendInt(int64(kind + 1))
		if y == 0 {
			year.AppendNull()
		} else {
			year.AppendInt(y)
		}
		if kind == 6 {
			season.AppendInt(int64(1 + g.rng.Intn(12)))
			episode.AppendInt(int64(1 + g.rng.Intn(24)))
		} else {
			season.AppendNull()
			episode.AppendNull()
		}
	}
	db.Add(storage.NewTable("title", id, title, kindID, year, season, episode))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (g *gen) makeTitle(i int) string {
	adj := titleAdjectives[g.rng.Intn(len(titleAdjectives))]
	noun := titleNouns[g.rng.Intn(len(titleNouns))]
	var s string
	switch g.rng.Intn(4) {
	case 0:
		s = "The " + adj + " " + noun
	case 1:
		s = noun + " of the " + adj
	case 2:
		s = adj + " " + noun
	default:
		s = noun + " & " + titleNouns[g.rng.Intn(len(titleNouns))]
	}
	if g.titleSequel[i] {
		s += fmt.Sprintf(" %d", 2+g.rng.Intn(3))
	}
	if g.titleKind[i] == 6 {
		s += fmt.Sprintf(" (#%d.%d)", 1+g.rng.Intn(9), 1+g.rng.Intn(24))
	}
	return s
}

func (g *gen) companyTable(db *storage.Database) {
	n := g.nCompany
	g.companyCountry = make([]int, n)
	g.companyPool = make(map[int]*pool)

	id := storage.NewIntColumn("id")
	name := storage.NewStringColumn("name")
	code := storage.NewStringColumn("country_code")

	for i := 0; i < n; i++ {
		ci := g.pickCountry()
		g.companyCountry[i] = ci
		c := countries[ci]
		tokens := companyTokens[c.code]
		if tokens == nil || g.rng.Float64() < 0.35 {
			tokens = companyTokensDefault
		}
		nm := tokens[g.rng.Intn(len(tokens))] + " " + companySuffixes[g.rng.Intn(len(companySuffixes))]
		if g.rng.Float64() < 0.2 {
			nm += fmt.Sprintf(" %c", 'A'+rune(g.rng.Intn(26)))
		}
		id.AppendInt(int64(i + 1))
		name.AppendString(nm)
		if g.rng.Float64() < 0.03 {
			code.AppendNull()
		} else {
			code.AppendString(c.code)
		}
		p := g.companyPool[ci]
		if p == nil {
			p = &pool{}
			g.companyPool[ci] = p
		}
		// Company size is itself heavy-tailed: big studios get most movies.
		p.add(int64(i+1), g.popWeight())
	}
	db.Add(storage.NewTable("company_name", id, name, code))
}

func (g *gen) keywordTable(db *storage.Database) {
	id := storage.NewIntColumn("id")
	kw := storage.NewStringColumn("keyword")
	for i, s := range specialKeywords {
		id.AppendInt(int64(i + 1))
		kw.AppendString(s)
	}
	for i := len(specialKeywords); i < g.nKeyword; i++ {
		id.AppendInt(int64(i + 1))
		kw.AppendString(fmt.Sprintf("%s-%s-%d",
			titleAdjectives[g.rng.Intn(len(titleAdjectives))],
			titleNouns[g.rng.Intn(len(titleNouns))], i))
	}
	db.Add(storage.NewTable("keyword", id, kw))
}

func (g *gen) personTables(db *storage.Database) {
	n := g.nPerson
	g.personPop = make([]float64, n)
	g.personGender = make([]int, n)
	g.personCountry = make([]int, n)
	g.personPool = make(map[int]*pool)

	id := storage.NewIntColumn("id")
	name := storage.NewStringColumn("name")
	gender := storage.NewStringColumn("gender")

	for i := 0; i < n; i++ {
		pw := g.popWeight()
		g.personPop[i] = pw
		ci := g.pickCountry()
		g.personCountry[i] = ci
		gd := 0
		switch {
		case g.rng.Float64() < 0.38:
			gd = 1
		case g.rng.Float64() < 0.03:
			gd = 2
		}
		g.personGender[i] = gd
		var first string
		switch gd {
		case 1:
			first = firstNamesF[g.rng.Intn(len(firstNamesF))]
		default:
			first = firstNamesM[g.rng.Intn(len(firstNamesM))]
		}
		last := lastNames[g.rng.Intn(len(lastNames))]
		id.AppendInt(int64(i + 1))
		// IMDB stores names as "Last, First".
		name.AppendString(last + ", " + first)
		switch gd {
		case 0:
			gender.AppendString("m")
		case 1:
			gender.AppendString("f")
		default:
			gender.AppendNull()
		}
		p := g.personPool[ci]
		if p == nil {
			p = &pool{}
			g.personPool[ci] = p
		}
		p.add(int64(i+1), pw)
	}
	db.Add(storage.NewTable("name", id, name, gender))

	cid := storage.NewIntColumn("id")
	cname := storage.NewStringColumn("name")
	for i := 0; i < g.nChar; i++ {
		first := firstNamesM[g.rng.Intn(len(firstNamesM))]
		if g.rng.Float64() < 0.4 {
			first = firstNamesF[g.rng.Intn(len(firstNamesF))]
		}
		cid.AppendInt(int64(i + 1))
		if g.rng.Float64() < 0.3 {
			cname.AppendString(first)
		} else {
			cname.AppendString(first + " " + lastNames[g.rng.Intn(len(lastNames))])
		}
	}
	db.Add(storage.NewTable("char_name", cid, cname))
}

// globalPool builds a cross-country pool lazily.
func globalPool(pools map[int]*pool) *pool {
	gp := &pool{}
	keys := make([]int, 0, len(pools))
	for k := range pools {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		p := pools[k]
		base := 0.0
		for i, id := range p.ids {
			w := p.cum[i] - base
			base = p.cum[i]
			gp.add(id, w)
		}
	}
	return gp
}

func (g *gen) movieCompanies(db *storage.Database) {
	id := storage.NewIntColumn("id")
	movieID := storage.NewIntColumn("movie_id")
	companyID := storage.NewIntColumn("company_id")
	typeID := storage.NewIntColumn("company_type_id")
	note := storage.NewStringColumn("note")

	global := globalPool(g.companyPool)
	row := int64(1)
	for t := 0; t < g.nTitle; t++ {
		nc := g.poisson(0.6 + 0.45*g.titlePop[t])
		if g.titleKind[t] == 6 { // episodes carry few company rows
			nc = g.poisson(0.3)
		}
		for k := 0; k < nc; k++ {
			// The company's country correlates strongly with the title's
			// latent country: this is the join-crossing correlation behind
			// predicates like cn.country_code='[de]' AND mi.info='German'.
			pool := g.companyPool[g.titleCountry[t]]
			if pool == nil || g.rng.Float64() > g.companyLocal {
				pool = global
			}
			cid := pool.sample(g.rng)
			if cid == 0 {
				continue
			}
			ctype := g.weightedPick([]float64{0.55, 0.35, 0.04, 0.06})
			id.AppendInt(row)
			movieID.AppendInt(int64(t + 1))
			companyID.AppendInt(cid)
			typeID.AppendInt(int64(ctype + 1))
			if g.rng.Float64() < 0.35 {
				note.AppendNull()
			} else {
				cn := countries[g.companyCountry[cid-1]].name
				s := fmt.Sprintf("(%s)", cn)
				if y := g.titleYear[t]; y != 0 && g.rng.Float64() < 0.5 {
					s = fmt.Sprintf("(%d) %s", y, s)
				}
				if g.rng.Float64() < 0.25 {
					s += " " + mcNoteMedia[g.rng.Intn(len(mcNoteMedia))]
				}
				if g.rng.Float64() < 0.08 {
					s += " (co-production)"
				}
				if g.rng.Float64() < 0.05 {
					s += " (presents)"
				}
				note.AppendString(s)
			}
			row++
		}
	}
	db.Add(storage.NewTable("movie_companies", id, movieID, companyID, typeID, note))
}

var months = []string{
	"January", "February", "March", "April", "May", "June", "July",
	"August", "September", "October", "November", "December",
}

func (g *gen) movieInfo(db *storage.Database) {
	id := storage.NewIntColumn("id")
	movieID := storage.NewIntColumn("movie_id")
	typeID := storage.NewIntColumn("info_type_id")
	info := storage.NewStringColumn("info")
	note := storage.NewStringColumn("note")

	row := int64(1)
	emit := func(t int, it int, val, noteVal string) {
		id.AppendInt(row)
		movieID.AppendInt(int64(t + 1))
		typeID.AppendInt(int64(it))
		info.AppendString(val)
		if noteVal == "" {
			note.AppendNull()
		} else {
			note.AppendString(noteVal)
		}
		row++
	}

	for t := 0; t < g.nTitle; t++ {
		pop := g.titlePop[t]
		c := countries[g.titleCountry[t]]
		// Genres.
		for _, gi := range g.titleGenres[t] {
			emit(t, itGenres, genres[gi], "")
		}
		// Countries: primary plus sometimes a co-production country.
		emit(t, itCountries, c.name, "")
		if g.rng.Float64() < 0.22 {
			emit(t, itCountries, countries[g.pickCountry()].name, "")
		}
		// Languages.
		emit(t, itLanguages, c.lang, "")
		if c.lang != "English" && g.rng.Float64() < 0.25 {
			emit(t, itLanguages, "English", "")
		}
		// Release dates: popular titles are released in more countries.
		nr := 1 + g.poisson(0.35*math.Min(pop, 20))
		if nr > 8 {
			nr = 8
		}
		for k := 0; k < nr; k++ {
			rc := c
			if k > 0 {
				rc = countries[g.pickCountry()]
			}
			y := g.titleYear[t]
			if y == 0 {
				y = 1990 + int64(g.rng.Intn(23))
			}
			val := fmt.Sprintf("%s:%d %s %d", rc.name, 1+g.rng.Intn(28),
				months[g.rng.Intn(12)], y)
			nt := ""
			if k == 0 && g.rng.Float64() < 0.2 {
				nt = fmt.Sprintf("(%s) (premiere)", rc.name)
			}
			emit(t, itReleaseDates, val, nt)
		}
		// Runtimes.
		if g.rng.Float64() < 0.8 {
			mins := 75 + g.rng.Intn(90)
			if g.titleKind[t] == 6 {
				mins = 18 + g.rng.Intn(45)
			}
			emit(t, itRuntimes, fmt.Sprintf("%d", mins), "")
		}
		// Budget: mostly popular/US productions publish one.
		if g.rng.Float64() < 0.05+0.04*math.Min(pop, 10)+0.08*b2f(c.code == "[us]") {
			emit(t, itBudget, fmt.Sprintf("$%d,000,000", 1+g.rng.Intn(200)), "")
		}
		// Color info.
		if g.rng.Float64() < 0.75 {
			v := "Color"
			if y := g.titleYear[t]; y != 0 && y < 1950 && g.rng.Float64() < 0.85 {
				v = "Black and White"
			}
			emit(t, 11, v, "")
		}
		// Sound mix, certificates, tech info: sparse token rows.
		if g.rng.Float64() < 0.3 {
			emit(t, 12, []string{"Stereo", "Dolby Digital", "Mono", "DTS"}[g.rng.Intn(4)], "")
		}
		if g.rng.Float64() < 0.25 {
			emit(t, 13, fmt.Sprintf("%s:%s", c.name, []string{"PG", "R", "12", "16", "G"}[g.rng.Intn(5)]), "")
		}
		// Trivia rows grow with popularity.
		ntr := g.poisson(0.12 * math.Min(pop, 25))
		for k := 0; k < ntr; k++ {
			emit(t, 20, fmt.Sprintf("trivia-%d-%d", t, k), "")
		}
	}
	db.Add(storage.NewTable("movie_info", id, movieID, typeID, info, note))
}

func (g *gen) movieInfoIdx(db *storage.Database) {
	id := storage.NewIntColumn("id")
	movieID := storage.NewIntColumn("movie_id")
	typeID := storage.NewIntColumn("info_type_id")
	info := storage.NewStringColumn("info")
	infoNum := storage.NewIntColumn("info_num")

	// Top-250 / bottom-10 ranks go to the best/worst rated movies
	// (kind = movie only), creating the rank <-> rating <-> popularity
	// correlation chain.
	type rated struct {
		t      int
		rating int64
		votes  int64
	}
	var movies []rated
	for t := 0; t < g.nTitle; t++ {
		if g.titleKind[t] == 0 && g.titleRating[t] > 0 {
			movies = append(movies, rated{t, g.titleRating[t], g.titleVotes[t]})
		}
	}
	sort.Slice(movies, func(i, j int) bool {
		if movies[i].rating != movies[j].rating {
			return movies[i].rating > movies[j].rating
		}
		return movies[i].votes > movies[j].votes
	})
	nTop := max(5, int(250*g.cfg.Scale))
	if nTop > len(movies) {
		nTop = len(movies)
	}
	nBottom := max(2, int(10*g.cfg.Scale))
	if nBottom > len(movies)-nTop {
		nBottom = max(0, len(movies)-nTop)
	}
	topRank := make(map[int]int)
	bottomRank := make(map[int]int)
	for i := 0; i < nTop; i++ {
		topRank[movies[i].t] = i + 1
	}
	for i := 0; i < nBottom; i++ {
		bottomRank[movies[len(movies)-1-i].t] = i + 1
	}

	row := int64(1)
	emit := func(t, it int, val string, num int64) {
		id.AppendInt(row)
		movieID.AppendInt(int64(t + 1))
		typeID.AppendInt(int64(it))
		info.AppendString(val)
		infoNum.AppendInt(num)
		row++
	}
	for t := 0; t < g.nTitle; t++ {
		if r := g.titleRating[t]; r > 0 {
			emit(t, itRating, fmt.Sprintf("%d.%d", r/10, r%10), r)
			emit(t, itVotes, fmt.Sprintf("%d", g.titleVotes[t]), g.titleVotes[t])
		}
		if rk, ok := topRank[t]; ok {
			emit(t, itTop250, fmt.Sprintf("%d", rk), int64(rk))
		}
		if rk, ok := bottomRank[t]; ok {
			emit(t, itBottom10, fmt.Sprintf("%d", rk), int64(rk))
		}
	}
	db.Add(storage.NewTable("movie_info_idx", id, movieID, typeID, info, infoNum))
}

func (g *gen) movieKeyword(db *storage.Database) {
	id := storage.NewIntColumn("id")
	movieID := storage.NewIntColumn("movie_id")
	keywordID := storage.NewIntColumn("keyword_id")

	kwIdx := make(map[string]int64, len(specialKeywords))
	for i, s := range specialKeywords {
		kwIdx[s] = int64(i + 1)
	}

	row := int64(1)
	emit := func(t int, kw int64) {
		id.AppendInt(row)
		movieID.AppendInt(int64(t + 1))
		keywordID.AppendInt(kw)
		row++
	}
	for t := 0; t < g.nTitle; t++ {
		nk := g.poisson(0.3 + 0.35*g.titlePop[t])
		if nk > 25 {
			nk = 25
		}
		seen := make(map[int64]bool, nk+2)
		add := func(kw int64) {
			if kw > 0 && !seen[kw] {
				seen[kw] = true
				emit(t, kw)
			}
		}
		if g.titleSequel[t] {
			add(kwIdx["sequel"])
			if g.rng.Float64() < 0.4 {
				add(kwIdx["second-part"])
			}
		}
		for k := 0; k < nk; k++ {
			// Keywords correlate with genre through per-genre pools.
			gi := g.titleGenres[t][g.rng.Intn(len(g.titleGenres[t]))]
			if pool := keywordGenrePool[genres[gi]]; pool != nil && g.rng.Float64() < 0.5 {
				add(kwIdx[pool[g.rng.Intn(len(pool))]])
				continue
			}
			// Zipf over the whole keyword table: low ids are hot.
			u := g.rng.Float64()
			kw := int64(float64(g.nKeyword)*math.Pow(u, 2.5)) + 1
			if kw > int64(g.nKeyword) {
				kw = int64(g.nKeyword)
			}
			add(kw)
		}
	}
	db.Add(storage.NewTable("movie_keyword", id, movieID, keywordID))
}

func (g *gen) castInfo(db *storage.Database) {
	id := storage.NewIntColumn("id")
	personID := storage.NewIntColumn("person_id")
	movieID := storage.NewIntColumn("movie_id")
	roleCharID := storage.NewIntColumn("person_role_id")
	note := storage.NewStringColumn("note")
	nrOrder := storage.NewIntColumn("nr_order")
	roleID := storage.NewIntColumn("role_id")

	global := globalPool(g.personPool)
	roleIdx := make(map[string]int64, len(roleTypes))
	for i, s := range roleTypes {
		roleIdx[s] = int64(i + 1)
	}

	row := int64(1)
	for t := 0; t < g.nTitle; t++ {
		pop := g.titlePop[t]
		lam := 0.5 + 2.8*pop
		if g.titleKind[t] == 6 {
			lam = 0.5 + 1.2*pop
		}
		nc := g.poisson(math.Min(lam, 90))
		primaryGenre := genres[g.titleGenres[t][0]]
		for k := 0; k < nc; k++ {
			// Actors cluster by country: a French movie casts French actors
			// with high probability (the paper's §4.4 example of a
			// join-crossing correlation).
			pool := g.personPool[g.titleCountry[t]]
			if pool == nil || g.rng.Float64() > g.personLocal {
				pool = global
			}
			pid := pool.sample(g.rng)
			if pid == 0 {
				continue
			}
			gender := g.personGender[pid-1]
			var role string
			r := g.rng.Float64()
			switch {
			case r < 0.55:
				if gender == 1 {
					role = "actress"
				} else {
					role = "actor"
				}
			case r < 0.63:
				role = "producer"
			case r < 0.71:
				role = "writer"
			case r < 0.77:
				role = "director"
			case r < 0.82:
				role = "composer"
			case r < 0.87:
				role = "editor"
			case r < 0.91:
				role = "cinematographer"
			case r < 0.94:
				role = "costume designer"
			case r < 0.97:
				role = "miscellaneous crew"
			case r < 0.99:
				role = "production designer"
			default:
				role = "guest"
			}
			id.AppendInt(row)
			personID.AppendInt(pid)
			movieID.AppendInt(int64(t + 1))
			isActing := role == "actor" || role == "actress"
			if isActing && g.rng.Float64() < 0.55 {
				roleCharID.AppendInt(int64(1 + g.rng.Intn(g.nChar)))
			} else {
				roleCharID.AppendNull()
			}
			// Notes: "(voice)" is strongly boosted for Animation.
			voiceBoost := 0.0
			if primaryGenre == "Animation" {
				voiceBoost = 0.45
			}
			u := g.rng.Float64()
			switch {
			case isActing && u < ciNoteShare[0]+voiceBoost:
				note.AppendString("(voice)")
			case u < 0.40:
				ni := g.weightedPick(ciNoteShare)
				note.AppendString(ciNotes[ni])
			default:
				note.AppendNull()
			}
			if isActing {
				nrOrder.AppendInt(int64(k + 1))
			} else {
				nrOrder.AppendNull()
			}
			roleID.AppendInt(roleIdx[role])
			row++
		}
	}
	db.Add(storage.NewTable("cast_info", id, personID, movieID, roleCharID, note, nrOrder, roleID))
}

func (g *gen) movieLink(db *storage.Database) {
	id := storage.NewIntColumn("id")
	movieID := storage.NewIntColumn("movie_id")
	linkedID := storage.NewIntColumn("linked_movie_id")
	typeID := storage.NewIntColumn("link_type_id")

	linkIdx := make(map[string]int64, len(linkTypes))
	for i, s := range linkTypes {
		linkIdx[s] = int64(i + 1)
	}
	row := int64(1)
	emit := func(a, b int, lt string) {
		id.AppendInt(row)
		movieID.AppendInt(int64(a + 1))
		linkedID.AppendInt(int64(b + 1))
		typeID.AppendInt(linkIdx[lt])
		row++
	}
	for t := 0; t < g.nTitle; t++ {
		// Sequels link back to an earlier title: keyword 'sequel' and
		// link_type 'follows' are correlated.
		if g.titleSequel[t] {
			prev := g.rng.Intn(t)
			emit(t, prev, "follows")
			emit(prev, t, "followed by")
		}
		// Popular titles attract references.
		if g.rng.Float64() < 0.004*math.Min(g.titlePop[t], 40) && t > 0 {
			other := g.rng.Intn(g.nTitle)
			if other != t {
				lt := []string{"references", "spoofs", "features", "remake of", "version of", "similar to"}[g.rng.Intn(6)]
				emit(t, other, lt)
			}
		}
	}
	db.Add(storage.NewTable("movie_link", id, movieID, linkedID, typeID))
}

func (g *gen) personInfo(db *storage.Database) {
	id := storage.NewIntColumn("id")
	personID := storage.NewIntColumn("person_id")
	typeID := storage.NewIntColumn("info_type_id")
	info := storage.NewStringColumn("info")
	note := storage.NewStringColumn("note")

	row := int64(1)
	emit := func(p, it int, val, nt string) {
		id.AppendInt(row)
		personID.AppendInt(int64(p + 1))
		typeID.AppendInt(int64(it))
		info.AppendString(val)
		if nt == "" {
			note.AppendNull()
		} else {
			note.AppendString(nt)
		}
		row++
	}
	for p := 0; p < g.nPerson; p++ {
		pw := g.personPop[p]
		c := countries[g.personCountry[p]]
		if g.rng.Float64() < 0.10+0.03*math.Min(pw, 15) {
			nt := ""
			if g.rng.Float64() < 0.25 {
				nt = "Volker Boehm" // the contributor JOB's query 7 filters on
			}
			emit(p, itMiniBio, fmt.Sprintf("bio-%d", p), nt)
		}
		if g.rng.Float64() < 0.12 {
			emit(p, itBirthNotes, fmt.Sprintf("%s, %s", c.name, c.lang), "")
		}
		if g.rng.Float64() < 0.3 {
			emit(p, itBirthDate, fmt.Sprintf("%d", 1920+g.rng.Intn(80)), "")
		}
		if g.rng.Float64() < 0.06 {
			emit(p, itHeight, fmt.Sprintf("%d cm", 150+g.rng.Intn(55)), "")
		}
	}
	db.Add(storage.NewTable("person_info", id, personID, typeID, info, note))

	// aka_name and aka_title ride along here to keep generation order tidy.
	aid := storage.NewIntColumn("id")
	apid := storage.NewIntColumn("person_id")
	aname := storage.NewStringColumn("name")
	arow := int64(1)
	for p := 0; p < g.nPerson; p++ {
		n := g.poisson(0.15 + 0.05*math.Min(g.personPop[p], 20))
		for k := 0; k < n; k++ {
			first := firstNamesM[g.rng.Intn(len(firstNamesM))]
			if g.personGender[p] == 1 {
				first = firstNamesF[g.rng.Intn(len(firstNamesF))]
			}
			aid.AppendInt(arow)
			apid.AppendInt(int64(p + 1))
			aname.AppendString(first + " " + lastNames[g.rng.Intn(len(lastNames))])
			arow++
		}
	}
	db.Add(storage.NewTable("aka_name", aid, apid, aname))

	tid := storage.NewIntColumn("id")
	tmid := storage.NewIntColumn("movie_id")
	ttitle := storage.NewStringColumn("title")
	trow := int64(1)
	for t := 0; t < g.nTitle; t++ {
		if g.rng.Float64() < 0.02+0.01*math.Min(g.titlePop[t], 12) {
			tid.AppendInt(trow)
			tmid.AppendInt(int64(t + 1))
			ttitle.AppendString(fmt.Sprintf("%s (%s title)",
				g.makeTitle(t), countries[g.pickCountry()].name))
			trow++
		}
	}
	db.Add(storage.NewTable("aka_title", tid, tmid, ttitle))
}

func (g *gen) completeCast(db *storage.Database) {
	id := storage.NewIntColumn("id")
	movieID := storage.NewIntColumn("movie_id")
	subjectID := storage.NewIntColumn("subject_id")
	statusID := storage.NewIntColumn("status_id")
	row := int64(1)
	for t := 0; t < g.nTitle; t++ {
		if g.titleKind[t] != 0 && g.titleKind[t] != 1 {
			continue
		}
		if g.rng.Float64() > 0.04+0.01*math.Min(g.titlePop[t], 10) {
			continue
		}
		// subject: cast or crew; status: complete or complete+verified.
		id.AppendInt(row)
		movieID.AppendInt(int64(t + 1))
		subjectID.AppendInt(int64(1 + g.rng.Intn(2)))
		statusID.AppendInt(int64(3 + g.rng.Intn(2)))
		row++
	}
	db.Add(storage.NewTable("complete_cast", id, movieID, subjectID, statusID))
}
