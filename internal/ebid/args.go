package ebid

import (
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/store/db"
)

// OpArgs is the typed argument codec for the end-user operations: one
// field per argument the 17 session components read. A zero-valued field
// reads as absent — every numeric argument here is >= 1 when present —
// except Rating, where zero and negative values are legal and presence is
// carried explicitly by HasRating.
type OpArgs struct {
	User     int64
	Item     int64
	Category int64
	Region   int64
	Amount   float64
	Rating   int64
	// HasRating marks Rating as present.
	HasRating bool
}

// SetString decodes one URL-style key=value pair into the codec,
// reporting whether the key is one it carries and its value parsed (an
// amount must also be finite). The HTTP front end decodes every query key
// through it.
func (a *OpArgs) SetString(key, val string) bool {
	switch key {
	case "user", "item", "category", "region", "rating":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return false
		}
		switch key {
		case "user":
			a.User = n
		case "item":
			a.Item = n
		case "category":
			a.Category = n
		case "region":
			a.Region = n
		case "rating":
			a.Rating = n
			a.HasRating = true
		}
		return true
	case "amount":
		x, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
		a.Amount = x
		return true
	}
	return false
}

// argKeys are the keys SetString carries; SetQuery tracks which of them
// have had their first value by their index here.
var argKeys = [...]string{"user", "item", "category", "region", "rating", "amount"}

// SetQuery decodes a URL query (a URL's RawQuery) onto the codec exactly as
// url.ParseQuery followed by SetString(key, values[0]) for each key would,
// without building the url.Values map: a pair holding ';' is dropped, as
// is one whose key or value does not unescape; a key's first remaining
// pair is the one SetString sees, and its later pairs are ignored. Only a
// key or value holding '%' or '+' is unescaped.
func (a *OpArgs) SetQuery(query string) {
	var seen uint8 // bit i: argKeys[i] has had its first value
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		i := slices.Index(argKeys[:], key)
		if i < 0 || seen&(1<<i) != 0 {
			continue // not an argument, or not its first value
		}
		if val, ok = queryUnescape(val); ok {
			seen |= 1 << i
			a.SetString(key, val)
		}
	}
}

// queryUnescape is url.QueryUnescape, skipped for a string with nothing to
// unescape.
func queryUnescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	s, err := url.QueryUnescape(s)
	return s, err == nil
}

// EntityArgs is the typed argument codec for entity sub-operations (the
// load/create/update/byIndex/list/next hops session components make).
// Instances are pooled: invokeEntity releases them once the child call
// has been safely recycled.
type EntityArgs struct {
	Key int64
	// HasKey marks Key as present (opCreate distinguishes caller-chosen
	// keys from auto-assigned ones).
	HasKey bool
	Row    db.Row
	Tx     *db.Tx
	Col    string
	Val    any
	Limit  int
	Kind   string
}

var entityArgsPool = sync.Pool{New: func() any { return new(EntityArgs) }}

func newEntityArgs() *EntityArgs { return entityArgsPool.Get().(*EntityArgs) }

func (a *EntityArgs) release() {
	*a = EntityArgs{}
	entityArgsPool.Put(a)
}

// The constructors below build pooled EntityArgs for the hop shapes the
// session components use. tx may be nil (auto-commit hop).

func keyArgs(tx *db.Tx, key int64) *EntityArgs {
	a := newEntityArgs()
	a.Key, a.HasKey, a.Tx = key, true, tx
	return a
}

func rowArgs(tx *db.Tx, key int64, row db.Row) *EntityArgs {
	a := newEntityArgs()
	a.Key, a.HasKey, a.Row, a.Tx = key, true, row, tx
	return a
}

func byIndexArgs(col string, val any) *EntityArgs {
	a := newEntityArgs()
	a.Col, a.Val = col, val
	return a
}

func listArgs(limit int) *EntityArgs {
	a := newEntityArgs()
	a.Limit = limit
	return a
}

func kindArgs(tx *db.Tx, kind string) *EntityArgs {
	a := newEntityArgs()
	a.Kind, a.Tx = kind, tx
	return a
}
