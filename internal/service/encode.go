package service

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// encoder writes response bodies into a buffer it keeps between
// responses. The two bodies the ranking routes answer with, a
// *RankResponse and a *BatchResponse, take a single-pass fast path
// without reflection; every other value, and a response the fast path
// gives up on, goes through encoding/json, so the bytes and the error
// are always those of json.NewEncoder(w).Encode.
type encoder struct {
	buf   []byte
	attrs []attr // scratch for sorting a map's entries by key
	ok    bool   // cleared when the fast path meets a NaN or an infinity
}

// attr is one entry of a string map.
type attr struct{ key, value string }

// encode sets e.buf to the bytes json.NewEncoder(w).Encode(v) writes for
// v, trailing newline included, and returns the error Encode returns.
func (e *encoder) encode(v any) error {
	e.buf = e.buf[:0]
	if e.fast(v) {
		e.buf = append(e.buf, '\n')
		return nil
	}
	e.buf = e.buf[:0]
	return json.NewEncoder(e).Encode(v)
}

// Write appends p to the buffer, which lets encoding/json encode into it.
func (e *encoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// fast is the fast path of encode. It reports whether it encoded v; it
// gives up on other types, on nil pointers, and on a NaN or an infinite
// number, which encoding/json refuses with an error of its own.
func (e *encoder) fast(v any) bool {
	e.ok = true
	switch v := v.(type) {
	case *RankResponse:
		if v == nil {
			return false
		}
		e.rankResponse(v)
	case *BatchResponse:
		if v == nil {
			return false
		}
		e.buf = append(e.buf, `{"items":`...)
		array(e, v.Items, (*encoder).batchItem)
		e.buf = append(e.buf, '}')
	default:
		return false
	}
	return e.ok
}

// The writers below follow the struct declarations field by field (in
// types.go, and fairrank.Diagnostics and ProbDiagnostics in the root
// package) and leave out the fields tagged omitempty when they are empty,
// as encoding/json does. The scalar writers take the bytes before the
// value (separator, key and colon) as prefix.

func (e *encoder) rankResponse(r *RankResponse) {
	e.str(`{"algorithm":`, r.Algorithm)
	e.buf = append(e.buf, `,"ranking":`...)
	array(e, r.Ranking, (*encoder).rankedCandidate)
	e.float(`,"ndcg":`, r.NDCG)
	e.buf = append(e.buf, `,"diagnostics":`...)
	e.diagnostics(&r.Diagnostics)
	e.buf = append(e.buf, '}')
}

func (e *encoder) rankedCandidate(c *RankedCandidate) {
	e.int(`{"rank":`, int64(c.Rank))
	e.str(`,"id":`, c.ID)
	e.float(`,"score":`, c.Score)
	e.str(`,"group":`, c.Group)
	if len(c.Attrs) > 0 {
		e.buf = append(e.buf, `,"attrs":`...)
		e.stringMap(c.Attrs)
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) diagnostics(d *Diagnostics) {
	e.str(`{"algorithm":`, string(d.Algorithm))
	e.str(`,"central":`, string(d.Central))
	e.str(`,"criterion":`, string(d.Criterion))
	e.float(`,"theta":`, d.Theta)
	e.int(`,"samples":`, int64(d.Samples))
	e.float(`,"tolerance":`, d.Tolerance)
	e.int(`,"seed":`, d.Seed)
	if d.Noise != "" {
		e.str(`,"noise":`, string(d.Noise))
	}
	e.int(`,"top_k":`, int64(d.TopK))
	e.float(`,"ndcg":`, d.NDCG)
	e.int(`,"draws_evaluated":`, int64(d.DrawsEvaluated))
	e.int(`,"central_kendall_tau":`, d.CentralKendallTau)
	e.float(`,"ppfair":`, d.PPfair)
	e.int(`,"infeasible_index":`, int64(d.InfeasibleIndex))
	if p := d.Probabilistic; p != nil {
		e.float(`,"probabilistic":{"expected_ppfair":`, p.ExpectedPPfair)
		e.int(`,"expected_infeasible_index":`, int64(p.ExpectedInfeasibleIndex))
		e.float(`,"expected_disparate_exposure":`, p.ExpectedDisparateExposure)
		e.float(`,"expected_exposure_gap":`, p.ExpectedExposureGap)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) batchItem(it *BatchItem) {
	e.buf = append(e.buf, '{')
	if it.Response != nil {
		e.buf = append(e.buf, `"response":`...)
		e.rankResponse(it.Response)
	}
	if it.Error != "" {
		if it.Response != nil {
			e.buf = append(e.buf, ',')
		}
		e.str(`"error":`, it.Error)
	}
	e.buf = append(e.buf, '}')
}

// array writes s as an array, each element written by elem; a nil slice
// is null, as with encoding/json.
func array[E any](e *encoder, s []E, elem func(*encoder, *E)) {
	if s == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range s {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(e, &s[i])
	}
	e.buf = append(e.buf, ']')
}

// stringMap writes m as an object with its keys in sorted order, as
// encoding/json sorts them.
func (e *encoder) stringMap(m map[string]string) {
	kv := e.attrs[:0]
	for k, v := range m {
		kv = append(kv, attr{k, v})
	}
	slices.SortFunc(kv, func(a, b attr) int { return strings.Compare(a.key, b.key) })
	e.buf = append(e.buf, '{')
	for i, a := range kv {
		sep := ","
		if i == 0 {
			sep = ""
		}
		e.str(sep, a.key)
		e.str(":", a.value)
	}
	e.buf = append(e.buf, '}')
	clear(kv) // a pooled encoder must not keep the strings alive
	e.attrs = kv[:0]
}

func (e *encoder) int(prefix string, n int64) {
	e.buf = strconv.AppendInt(append(e.buf, prefix...), n, 10)
}

// float writes prefix and f as encoding/json formats a float64: in
// strconv's shortest 'f' form, switching to 'e' below 1e-6 and from 1e21
// up, where a one-digit negative exponent is not padded (1e-7, not
// 1e-07). A NaN or an infinity clears e.ok instead.
func (e *encoder) float(prefix string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	b := append(e.buf, prefix...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n-start >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.buf = b
}

// safeASCII[c] reports whether encoding/json writes the ASCII byte c as
// itself: every byte but the control bytes, the quote, the backslash,
// and <, > and &, which it escapes so that JSON can be embedded in HTML.
var safeASCII = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// str writes prefix and s as a JSON string escaped as encoding/json
// escapes it: the quote, the backslash, \b, \f, \n, \r and \t with their
// short escapes; other control bytes and <, > and & as \u00XX; the line
// and paragraph separators U+2028 and U+2029 as \u202X escapes, which
// keeps the JSON valid JavaScript (JSONP); and each byte that is not
// part of valid UTF-8 as the escaped replacement character U+FFFD.
func (e *encoder) str(prefix, s string) {
	b := append(e.buf, prefix...)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safeASCII[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}
