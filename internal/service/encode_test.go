package service

// encoding/json is the reference for the response encoder: for any
// value, encoder.encode must write the bytes json.Encoder writes and
// return the error it returns.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	fairrank "repro"
)

// checkEncode compares encoder.encode with json.Encoder on v. When
// encoding/json encodes a non-nil *RankResponse or *BatchResponse, the
// fast path must have taken it: a fast path that gave up on everything
// would pass the comparison alone.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(v)
	var e encoder
	gotErr := e.encode(v)
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("encoding %+v: error %v, encoding/json %v", v, gotErr, wantErr)
	case gotErr == nil && !bytes.Equal(e.buf, want.Bytes()):
		t.Fatalf("encoding %+v:\n got %s\nwant %s", v, e.buf, want.Bytes())
	}
	var fast bool
	switch v := v.(type) {
	case *RankResponse:
		fast = v != nil
	case *BatchResponse:
		fast = v != nil
	}
	if fast && wantErr == nil && !e.fast(v) {
		t.Fatalf("the fast path gave up on %+v, which encoding/json encodes", v)
	}
}

// fuzzShape hands out the bits of a fuzz argument that choose the shape
// of the responses built from it.
type fuzzShape uint64

func (s *fuzzShape) take(bits uint) int {
	v := int(*s & (1<<bits - 1))
	*s >>= bits
	return v
}

// fuzzResponses builds a RankResponse and a BatchResponse from fuzz
// arguments: text and key fill every string, x and y every float, n
// every integer, and shape picks nil, empty or filled slices and maps,
// a nil or set Probabilistic, and which of Response and Error each
// batch item carries.
func fuzzResponses(text, key string, x, y float64, n int64, shape uint64) (*RankResponse, *BatchResponse) {
	bits := fuzzShape(shape)
	floats := []float64{x, y, -x, x * y, x / 3}
	maps := []map[string]string{
		nil,
		{},
		{key: text},
		{key: text, text: key, key + text: "", "k": text[:len(text)/2]},
	}
	rank := func() *RankResponse {
		r := &RankResponse{
			Algorithm: text,
			NDCG:      y,
			Diagnostics: Diagnostics{
				Algorithm:         fairrank.Algorithm(key),
				Central:           fairrank.Central(text),
				Criterion:         fairrank.Criterion(key + text),
				Theta:             x,
				Samples:           int(n),
				Tolerance:         y,
				Seed:              n,
				TopK:              int(n >> 1),
				NDCG:              x,
				DrawsEvaluated:    int(-n),
				CentralKendallTau: -n,
				PPfair:            y,
				InfeasibleIndex:   int(n >> 3),
			},
		}
		if bits.take(1) == 1 {
			r.Diagnostics.Noise = fairrank.Noise(text)
		}
		if bits.take(1) == 1 {
			r.Diagnostics.Probabilistic = &ProbDiagnostics{
				ExpectedPPfair:            x,
				ExpectedInfeasibleIndex:   int(n),
				ExpectedDisparateExposure: y,
				ExpectedExposureGap:       -y,
			}
		}
		switch rows := bits.take(2); rows {
		case 0:
		case 1:
			r.Ranking = []RankedCandidate{}
		default:
			for i := range 2*rows - 3 {
				r.Ranking = append(r.Ranking, RankedCandidate{
					Rank:  int(n) + i,
					ID:    text[i*len(text)/3:],
					Score: floats[i%len(floats)],
					Group: key,
					Attrs: maps[bits.take(2)],
				})
			}
		}
		return r
	}
	single := rank()
	batch := &BatchResponse{}
	switch items := bits.take(2); items {
	case 0:
	case 1:
		batch.Items = []BatchItem{}
	default:
		batch.Items = []BatchItem{{Response: rank()}, {Error: text}, {Response: rank(), Error: key}, {}}[:1+3*(items-2)]
	}
	return single, batch
}

func FuzzEncodeResponse(f *testing.F) {
	texts := []string{
		"",
		"plain-id_42",
		`<a href="x">&amp;</a>`,
		"line\xe2\x80\xa8para\xe2\x80\xa9graph", // U+2028, U+2029
		"\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f",
		"bad \xff\xfe utf-8 \xc3",
		`"quoted" \back\slash/`,
		"ünïcødé 日本 \U0001F642",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e20, 123456789,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		1e-7, 1.5e-9, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		math.NaN(), math.Inf(1),
	}
	for i, text := range texts {
		for j, x := range floats {
			key := texts[(i+j+1)%len(texts)]
			y := floats[(i+2*j+3)%len(floats)]
			f.Add(text, key, x, y, int64(j)*int64(i)-7, uint64(i*len(floats)+j)*0x9e3779b97f4a7c15)
		}
	}
	f.Add("a", "b", 1.0, 2.0, int64(math.MinInt64), uint64(0))
	f.Add("a", "b", 1.0, 2.0, int64(math.MaxInt64), ^uint64(0))
	f.Fuzz(func(t *testing.T, text, key string, x, y float64, n int64, shape uint64) {
		single, batch := fuzzResponses(text, key, x, y, n, shape)
		checkEncode(t, single)
		checkEncode(t, batch)
	})
}

// TestEncodeNilAndFallback covers what the fast path hands to
// encoding/json: nil pointers and every other type.
func TestEncodeNilAndFallback(t *testing.T) {
	for _, v := range []any{
		(*RankResponse)(nil),
		(*BatchResponse)(nil),
		RankResponse{Algorithm: "by value"},
		map[string]string{"error": "<boom>"},
		&JobStatusResponse{ID: "job-000001", Items: []json.RawMessage{[]byte(`{"error":"x"}`)}},
		Catalog(),
		nil,
	} {
		checkEncode(t, v)
	}
}

// fill sets every exported field reachable from v to a value that is not
// empty: strings, numbers and booleans, slices of two elements, maps of
// three entries, and pointers to filled values. A kind it does not know
// fails the test, so a new field type cannot slip past it.
func fill(t *testing.T, v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d<&>", *next))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), next)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range s.Len() {
			fill(t, s.Index(i), next)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 3 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, next)
			fill(t, e, next)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), next)
			}
		}
	default:
		t.Fatalf("fill does not know %s values (%s)", v.Kind(), v.Type())
	}
}

// TestEncodeEveryField fills every exported field of the two fast-path
// types by reflection, so a field added to them, or to a type inside
// them, that the encoder does not write fails here.
func TestEncodeEveryField(t *testing.T) {
	next := 0
	var rank RankResponse
	fill(t, reflect.ValueOf(&rank).Elem(), &next)
	checkEncode(t, &rank)
	var batch BatchResponse
	fill(t, reflect.ValueOf(&batch).Elem(), &next)
	checkEncode(t, &batch)
}

// rerankResponse is a full ranking of n candidates with attributes, the
// response shape of a full rerank.
func rerankResponse(n int) *RankResponse {
	r := &RankResponse{
		Algorithm: "mallows-best",
		Ranking:   make([]RankedCandidate, n),
		NDCG:      0.9731,
		Diagnostics: Diagnostics{
			Algorithm: "mallows-best", Central: "weak", Criterion: "ndcg", Theta: 1, Samples: 15,
			Tolerance: 0.1, Seed: 7, Noise: "mallows", TopK: n, NDCG: 0.9731, DrawsEvaluated: 15,
			CentralKendallTau: 1234, PPfair: 97.5, InfeasibleIndex: 3,
			Probabilistic: &ProbDiagnostics{ExpectedPPfair: 91.25, ExpectedDisparateExposure: 0.0125},
		},
	}
	for i := range r.Ranking {
		r.Ranking[i] = RankedCandidate{
			Rank:  i + 1,
			ID:    fmt.Sprintf("c%06d", i),
			Score: float64(i%97)/7 - 3,
			Group: fmt.Sprintf("g%d", i%3),
			Attrs: map[string]string{"shadow": fmt.Sprintf("s%d", i%3)},
		}
	}
	return r
}

// TestEncodeAllocs pins the fast path's allocations on a 1000-row
// response with attributes: none once the encoder's buffer has grown,
// where encoding/json makes about three per row.
func TestEncodeAllocs(t *testing.T) {
	resp := rerankResponse(1000)
	checkEncode(t, resp)
	var e encoder
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.encode(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("encoding a %d-row response made %v allocations, want ≤ 2", len(resp.Ranking), allocs)
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses is answered
// 500 with the stable error shape, never its status over an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, v := range []any{
		&RankResponse{NDCG: math.NaN()},
		&BatchResponse{Items: []BatchItem{{Response: &RankResponse{Diagnostics: Diagnostics{Theta: math.Inf(1)}}}}},
		map[string]float64{"x": math.Inf(-1)},
	} {
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(v)
		if err == nil {
			t.Fatalf("encoding/json encoded %+v", v)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", rec.Code)
		}
		if got, want := rec.Body.String(), wantErrorBody(t, "encoding response: "+err.Error()); got != want {
			t.Errorf("body = %q, want exactly %q", got, want)
		}
	}
}
