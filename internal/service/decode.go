package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// maxInterned caps the per-request table of interned strings. Group
// names, attribute keys and values, and the option names of batch
// entries repeat across a request, so a few hundred entries cover any
// realistic one; past the cap, strings are copied one by one.
const maxInterned = 256

// decodeBody decodes the first JSON value of body into dst, which must
// be zero. The result, value and error alike, is exactly that of
// json.NewDecoder(bytes.NewReader(body)).Decode(dst): bodies in the
// canonical wire shape take a single-pass fast path, and on anything
// else the fast path gives up and encoding/json decodes the same bytes
// from scratch. Every string in dst is a copy, so body may be reused
// once decodeBody returns.
func decodeBody[T RankRequest | BatchRequest](body []byte, dst *T) error {
	if decodeFast(body, dst) {
		return nil
	}
	*dst = *new(T)
	return json.NewDecoder(bytes.NewReader(body)).Decode(dst)
}

// decodeFast is the fast path of decodeBody. It reports whether it
// decoded body; when it gives up, dst is left partly written. It takes
// only the canonical shape: a top-level object, known keys in exact
// case and at most once per object, strings with no escapes and valid
// UTF-8, and numbers in JSON's grammar that strconv parses into the
// field's type as encoding/json parses them. An escape, a null, an
// unknown or case-folded key, a field repeated in one object, a type
// mismatch or malformed JSON makes it give up. Like json.Decoder it stops at the
// end of the first value and ignores what follows.
func decodeFast[T RankRequest | BatchRequest](body []byte, dst *T) bool {
	d := fastDecoder{buf: body}
	switch v := any(dst).(type) {
	case *RankRequest:
		return d.rankRequest(v)
	case *BatchRequest:
		return d.batchRequest(v)
	}
	return false
}

// fastDecoder is the fast path's cursor over one body, with the body's
// table of interned strings.
type fastDecoder struct {
	buf      []byte
	pos      int
	interned map[string]string
}

func (d *fastDecoder) batchRequest(b *BatchRequest) bool {
	if !d.eat('{') {
		return false
	}
	var seen uint32
	for i := 0; ; i++ {
		key, end, ok := d.key(i)
		if !ok || end {
			return ok
		}
		switch string(key) {
		case "requests":
			ok = once(&seen, 0) && decodeArray(d, &b.Requests, (*fastDecoder).rankRequest)
		case "webhook_url":
			ok = once(&seen, 1) && d.str(&b.WebhookURL)
		default:
			return false
		}
		if !ok {
			return false
		}
	}
}

func (d *fastDecoder) rankRequest(r *RankRequest) bool {
	if !d.eat('{') {
		return false
	}
	var seen uint32
	for i := 0; ; i++ {
		key, end, ok := d.key(i)
		if !ok || end {
			return ok
		}
		switch string(key) {
		case "candidates":
			ok = once(&seen, 0) && decodeArray(d, &r.Candidates, (*fastDecoder).candidate)
		case "algorithm":
			ok = once(&seen, 1) && d.str(&r.Algorithm)
		case "central":
			ok = once(&seen, 2) && d.str(&r.Central)
		case "criterion":
			ok = once(&seen, 3) && d.str(&r.Criterion)
		case "noise":
			ok = once(&seen, 4) && d.str(&r.Noise)
		case "theta":
			ok = once(&seen, 5) && d.floatPtr(&r.Theta)
		case "samples":
			ok = once(&seen, 6) && d.intPtr(&r.Samples)
		case "tolerance":
			ok = once(&seen, 7) && d.floatPtr(&r.Tolerance)
		case "top_k":
			ok = once(&seen, 8) && d.intPtr(&r.TopK)
		case "weak_k":
			ok = once(&seen, 9) && d.int(&r.WeakK)
		case "sigma":
			ok = once(&seen, 10) && d.float(&r.Sigma)
		case "seed":
			ok = once(&seen, 11) && d.int64(&r.Seed)
		default:
			return false
		}
		if !ok {
			return false
		}
	}
}

func (d *fastDecoder) candidate(c *Candidate) bool {
	if !d.eat('{') {
		return false
	}
	var seen uint32
	for i := 0; ; i++ {
		key, end, ok := d.key(i)
		if !ok || end {
			return ok
		}
		switch string(key) {
		case "id":
			ok = once(&seen, 0) && d.uniqueStr(&c.ID)
		case "score":
			ok = once(&seen, 1) && d.float(&c.Score)
		case "group":
			ok = once(&seen, 2) && d.str(&c.Group)
		case "attrs":
			ok = once(&seen, 3) && decodeMap(d, &c.Attrs)
		case "membership":
			ok = once(&seen, 4) && decodeMap(d, &c.Membership)
		default:
			return false
		}
		if !ok {
			return false
		}
	}
}

// once marks field bit in seen, reporting false when it was already
// marked: encoding/json merges a repeated key into what its first
// occurrence decoded, which the fast path leaves to it.
func once(seen *uint32, bit uint) bool {
	if *seen&(1<<bit) != 0 {
		return false
	}
	*seen |= 1 << bit
	return true
}

// decodeArray decodes an array into a new slice, which is empty but not
// nil for [] as with encoding/json.
func decodeArray[E any](d *fastDecoder, dst *[]E, elem func(*fastDecoder, *E) bool) bool {
	if !d.eat('[') {
		return false
	}
	s := []E{}
	for i := 0; ; i++ {
		if d.eat(']') {
			*dst = s
			return true
		}
		if i > 0 && !d.eat(',') {
			return false
		}
		s = append(s, *new(E))
		if !elem(d, &s[len(s)-1]) {
			return false
		}
	}
}

// decodeMap decodes an object into a new map, which is empty but not nil
// for {} as with encoding/json; a repeated key keeps its last value, as
// there. The value type is switched on rather than passed as a parser,
// which would move every value to the heap.
func decodeMap[V string | float64](d *fastDecoder, dst *map[string]V) bool {
	if !d.eat('{') {
		return false
	}
	m := map[string]V{}
	for i := 0; ; i++ {
		key, end, ok := d.key(i)
		if !ok {
			return false
		}
		if end {
			*dst = m
			return true
		}
		var v V
		switch p := any(&v).(type) {
		case *string:
			ok = d.str(p)
		case *float64:
			ok = d.float(p)
		}
		if !ok {
			return false
		}
		m[d.intern(key)] = v
	}
}

// key reads the key of an object's next member and the colon after it,
// where i counts the members already read; end reports that the
// object's closing brace came instead.
func (d *fastDecoder) key(i int) (key []byte, end, ok bool) {
	if d.eat('}') {
		return nil, true, true
	}
	if i > 0 && !d.eat(',') {
		return nil, false, false
	}
	key, ok = d.raw()
	return key, false, ok && d.eat(':')
}

// ws skips whitespace.
func (d *fastDecoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (d *fastDecoder) eat(c byte) bool {
	d.ws()
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// raw reads a string and returns its bytes, which still point into the
// body. It gives up on any string whose value under encoding/json is not
// its bytes: one with an escape or invalid UTF-8, which encoding/json
// rewrites, or a control character, which it rejects.
func (d *fastDecoder) raw() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start, ascii := d.pos, true
	for ; d.pos < len(d.buf); d.pos++ {
		switch c := d.buf[d.pos]; {
		case c == '"':
			s := d.buf[start:d.pos]
			d.pos++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// str reads a string through the intern table.
func (d *fastDecoder) str(dst *string) bool {
	b, ok := d.raw()
	if ok {
		*dst = d.intern(b)
	}
	return ok
}

// uniqueStr reads a string that is not expected to repeat, such as a
// candidate ID, bypassing the intern table.
func (d *fastDecoder) uniqueStr(dst *string) bool {
	b, ok := d.raw()
	if ok {
		*dst = string(b)
	}
	return ok
}

// intern returns b as a string, shared with earlier equal strings of the
// body while the table has room.
func (d *fastDecoder) intern(b []byte) string {
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.interned) < maxInterned {
		if d.interned == nil {
			d.interned = make(map[string]string)
		}
		d.interned[s] = s
	}
	return s
}

// number reads a number, checked against JSON's grammar: strconv alone
// would also take forms JSON has not, such as "+1", ".5" or "Inf".
func (d *fastDecoder) number() ([]byte, bool) {
	d.ws()
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[d.pos:i]
	d.pos = i
	return lit, true
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 as encoding/json does; it gives up
// where encoding/json reports a range error.
func (d *fastDecoder) float(dst *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (d *fastDecoder) floatPtr(dst **float64) bool {
	var f float64
	if !d.float(&f) {
		return false
	}
	*dst = &f
	return true
}

// integer reads a number into a bits-wide integer as encoding/json
// does, which refuses fractions, exponents and overflow.
func (d *fastDecoder) integer(bits int) (int64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

func (d *fastDecoder) int(dst *int) bool {
	n, ok := d.integer(strconv.IntSize)
	*dst = int(n)
	return ok
}

func (d *fastDecoder) intPtr(dst **int) bool {
	var n int
	if !d.int(&n) {
		return false
	}
	*dst = &n
	return true
}

func (d *fastDecoder) int64(dst *int64) bool {
	n, ok := d.integer(64)
	*dst = n
	return ok
}
