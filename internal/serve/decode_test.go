package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// --- the parent's decode path, kept as the oracle ---------------------------
//
// Until PR 22 the three endpoints decoded with json.Decoder, refused
// trailing data with a second Token call and then walked every value again
// in validate*. These copies are what the wire decoder is held to, by the
// fuzz targets bit for bit and by the benchmarks for cost.

func oracleDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after request object")
	}
	return nil
}

func oracleFinite(rows ...[]float64) error {
	for _, r := range rows {
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return errors.New("matrix entries must be finite")
			}
		}
	}
	return nil
}

func oracleValidateMatMul(req *MatMulRequest) error {
	rows := len(req.M)
	if rows == 0 || len(req.M[0]) == 0 {
		return errors.New("m must be a non-empty matrix")
	}
	inner := len(req.M[0])
	for i, r := range req.M {
		if len(r) != inner {
			return fmt.Errorf("m is ragged: row %d", i)
		}
	}
	if err := oracleValidateMatMulX("", req.M, req.X); err != nil {
		return err
	}
	return oracleFinite(req.M...)
}

func oracleValidateMatMulX(_ string, m, x [][]float64) error {
	if len(x) != len(m[0]) {
		return errors.New("dimension mismatch")
	}
	nrhs := len(x[0])
	if nrhs == 0 {
		return errors.New("x must have at least one column")
	}
	for i, r := range x {
		if len(r) != nrhs {
			return fmt.Errorf("x is ragged: row %d", i)
		}
	}
	return oracleFinite(x...)
}

func oracleValidateConv2D(req *Conv2DRequest) error {
	if len(req.Input) == 0 || len(req.Input[0]) == 0 || len(req.Input[0][0]) == 0 {
		return errors.New("input must be non-empty")
	}
	inH, inW := len(req.Input[0]), len(req.Input[0][0])
	for c := range req.Input {
		if len(req.Input[c]) != inH {
			return errors.New("input channel rows")
		}
		for y := range req.Input[c] {
			if len(req.Input[c][y]) != inW {
				return errors.New("input row columns")
			}
		}
	}
	if len(req.Kernels) == 0 || len(req.Kernels[0]) == 0 || len(req.Kernels[0][0]) == 0 || len(req.Kernels[0][0][0]) == 0 {
		return errors.New("kernels must be non-empty")
	}
	kc, kh, kw := len(req.Kernels[0]), len(req.Kernels[0][0]), len(req.Kernels[0][0][0])
	if kc != len(req.Input) {
		return errors.New("kernel channel count")
	}
	for k := range req.Kernels {
		if len(req.Kernels[k]) != kc {
			return errors.New("kernel channels")
		}
		for c := range req.Kernels[k] {
			if len(req.Kernels[k][c]) != kh {
				return errors.New("kernel rows")
			}
			for y := range req.Kernels[k][c] {
				if len(req.Kernels[k][c][y]) != kw {
					return errors.New("kernel columns")
				}
			}
		}
	}
	if req.Stride <= 0 || req.Pad < 0 {
		return errors.New("stride/pad")
	}
	if (inW+2*req.Pad-kw)/req.Stride+1 <= 0 || (inH+2*req.Pad-kh)/req.Stride+1 <= 0 {
		return errors.New("no output")
	}
	return nil
}

// Stand-ins for a registered model's weights, so that by-name bodies run
// the same post-decode checks the handlers apply after resolving the name.
var (
	fuzzModelM       = [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	fuzzModelKernels = [][][][]float64{{{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}}
)

// acceptMatMul is what handleMatMul does between the decode and admission.
func acceptMatMul(req *MatMulRequest, x func(what string, m, x [][]float64) error, inline func(*MatMulRequest) error) error {
	if req.Model != "" {
		if req.M != nil {
			return errors.New("pass either model or inline m, not both")
		}
		return x("model weights are", fuzzModelM, req.X)
	}
	return inline(req)
}

// acceptConv2D is what handleConv2D does between the decode and admission.
func acceptConv2D(req *Conv2DRequest, validate func(*Conv2DRequest) error) error {
	if req.Stride == 0 {
		req.Stride = 1
	}
	if req.Model != "" {
		if req.Kernels != nil {
			return errors.New("pass either model or inline kernels, not both")
		}
		req.Kernels = fuzzModelKernels
	}
	return validate(req)
}

// divergent reports the one input class on which the decoder and
// encoding/json are allowed to read different values (never a different
// accept/reject): a key given twice with a null array element in the body.
// encoding/json decodes the second occurrence over the first one's slices
// and a null element leaves the stale number in place; the decoder reads 0.
func divergent(body []byte) bool {
	if !bytes.Contains(body, []byte("null")) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var keys []string
	depth := 0
	isKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
				isKey = v == '{' && depth == 1
			} else {
				depth--
				isKey = depth == 1
			}
			continue
		case string:
			if depth == 1 && isKey {
				for _, k := range keys {
					if strings.EqualFold(k, v) {
						return true
					}
				}
				keys = append(keys, v)
				isKey = false
				continue
			}
		}
		isKey = depth == 1
	}
}

// sameRequest compares two decoded requests bit for bit: encoding/json
// prints the shortest text that round-trips a float64 and keeps the sign of
// zero, so equal text is equal bits; it also tells nil from empty.
func sameRequest(t *testing.T, body []byte, got, want any) {
	t.Helper()
	if divergent(body) {
		return
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("decoded values differ for %q\n decoder: %s\n    json: %s", clip(body), g, w)
	}
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(append([]byte{}, b[:300]...), "…"...)
	}
	return b
}

func sameVerdict(t *testing.T, body []byte, got, want error) bool {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("verdicts differ for %q\n decoder: %v\n    json: %v", clip(body), got, want)
	}
	return got == nil
}

func diffMatMul(t *testing.T, body []byte) {
	var got, want MatMulRequest
	gerr := DecodeMatMul(body, &got, AllFields)
	if gerr == nil {
		gerr = acceptMatMul(&got, validateMatMulX, validateMatMul)
	}
	werr := oracleDecode(body, &want)
	if werr == nil {
		werr = acceptMatMul(&want, oracleValidateMatMulX, oracleValidateMatMul)
	}
	if sameVerdict(t, body, gerr, werr) {
		sameRequest(t, body, &got, &want)
	}
	// The router's mode reads the same weights and model from the same body,
	// and refuses no body the full mode takes.
	var key MatMulRequest
	if kerr := DecodeMatMul(body, &key, RoutingFields); gerr == nil && kerr != nil {
		t.Fatalf("routing mode refuses %q (%v), full mode takes it", clip(body), kerr)
	} else if gerr == nil {
		got.X = nil
		sameRequest(t, body, &key, &got)
	}
}

func diffConv2D(t *testing.T, body []byte) {
	var got, want Conv2DRequest
	gerr := DecodeConv2D(body, &got, AllFields)
	if gerr == nil {
		gerr = acceptConv2D(&got, validateConv2D)
	}
	werr := oracleDecode(body, &want)
	if werr == nil {
		werr = acceptConv2D(&want, oracleValidateConv2D)
	}
	if sameVerdict(t, body, gerr, werr) {
		sameRequest(t, body, &got, &want)
	}
	var key Conv2DRequest
	if kerr := DecodeConv2D(body, &key, RoutingFields); gerr == nil && kerr != nil {
		t.Fatalf("routing mode refuses %q (%v), full mode takes it", clip(body), kerr)
	} else if gerr == nil && got.Model == "" {
		sameRequest(t, body, key.Kernels, got.Kernels)
	}
}

func diffInfer(t *testing.T, body []byte) {
	var got, want InferRequest
	if sameVerdict(t, body, DecodeInfer(body, &got, AllFields), oracleDecode(body, &want)) {
		sameRequest(t, body, &got, &want)
		var key InferRequest
		if err := DecodeInfer(body, &key, RoutingFields); err != nil || key.Model != got.Model {
			t.Fatalf("routing mode reads model %q (%v) from %q, full mode %q", key.Model, err, clip(body), got.Model)
		}
	}
}

// wireSeeds are the hand-written corpus entries every target starts from
// (the loadgen bodies live under testdata/fuzz). Each is valid input to all
// three targets: a body written for one endpoint is unknown fields to the
// others.
var wireSeeds = []string{
	// TestDecodeHardening and TestValidationRejectsMalformedRequests rows.
	"", "   ", `{"m": [[1,`, `{"m": "not a matrix"}`, `{"m": [[1]], "x": [[1]]} {"again": true}`, `{} []`,
	`{"m": [], "x": []}`, `{"m": [[1,2],[3]], "x": [[1],[2]]}`, `{"m": [[1,2]], "x": [[1]]}`,
	`{"m": [[1e999,0],[0,1]], "x": [[1],[2]]}`,
	// Well-formed, each endpoint, inline and by name.
	`{"m":[[1,2],[3,4]],"x":[[1],[2]],"timeout_ms":50}`,
	`{"model":"w@v1","x":[[1,2],[3,4],[5,6],[7,8]]}`,
	`{"input":[[[1,2,3],[4,5,6],[7,8,9]],[[1,2,3],[4,5,6],[7,8,9]]],"kernels":[[[[1,0],[0,1]],[[1,0],[0,1]]]],"stride":1,"pad":1}`,
	`{"input":[[[1,2,3],[4,5,6],[7,8,9]],[[1,2,3],[4,5,6],[7,8,9]]],"model":"k@v2","stride":2,"pad":0}`,
	`{"model":"vggfc-micro","vector":[0.5,-0.25,1e-3]}`,
	`{"model":"tiny-cnn","volume":[[[1,2],[3,4]],[[5,6],[7,8]]]}`,
	// Keys: case variants, the two non-ASCII letters that fold onto ASCII
	// (U+212A Kelvin onto k, U+017F long s onto s), escapes, duplicates.
	`{"M":[[1]],"X":[[2]],"TIMEOUT_MS":7}`, `{"Model":"a","VECTOR":[1]}`,
	"{\"\u212aernels\":[[[[1]]]],\"input\":[[[1]]],\"\u017ftride\":1,\"timeout_m\u017f\":3}", // Go escapes: the raw letters
	`{"\u006d":[[1]],"x":[[2]]}`, `{"m\u0000":[[1]],"m":[[2]],"x":[[3]]}`,
	`{"m":[[1]],"m":[[2,3],[4,5]],"x":[[1],[2]]}`, `{"x":[[1],[2]],"m":[[2,3]],"x":[[7],[8]]}`,
	`{"model":"a","model":"b","vector":[1],"vector":[2,3]}`, `{"stride":2,"stride":3,"pad":1,"pad":null}`,
	`{"m":[[1]],"M":null,"model":"w","x":[[1],[2],[3],[4]]}`,
	// null, for every field and as an element; the one divergence.
	`null`, ` null `, `nul`, `nulll`, `{"m":null,"model":null,"x":null,"timeout_ms":null}`,
	`{"input":null,"kernels":null,"stride":null,"pad":null}`, `{"model":"m","volume":null,"vector":null}`,
	`{"m":[[null,1]],"x":[[1],[null]]}`, `{"m":[null,[1]],"x":[[1]]}`, `{"m":[null],"x":[]}`, `{"vector":[null,null]}`,
	// A null row after a real one is a row of none: ragged, not a hole.
	`{"m":[[1],null],"x":[[1]]}`, `{"m":[[1]],"x":[[1],null]}`, `{"model":"w","x":[[1,2],null,[3,4],[5,6]]}`, `{"model":"w","x":[[1],[2],[3],null]}`,
	`{"input":[[[1,2],[3,4]],null],"kernels":[[[[1]],[[1]]]]}`, `{"input":[[[1,2],null]],"kernels":[[[[1]]]]}`,
	`{"input":[[[1]]],"kernels":[[[[1]]],null]}`, `{"input":[[[1]],[[1]]],"kernels":[[[[1]],null]]}`, `{"input":[[[1,2],[3,4]]],"kernels":[[[[1],null]]]}`,
	`{"input":[[[1]],null],"model":"k"}`, `{"volume":[[[1]],null,[null]],"vector":null}`,
	// (The divergence — null under a repeated key — is the named entry
	// divergence-duplicate-key-null-element in each testdata/fuzz corpus.)
	// Strings: escapes, surrogate pairs and halves, non-ASCII, invalid UTF-8.
	`{"model":"a\"b\\c\/d\b\f\n\r\te"}`, `{"model":"\u00e9\u4e16\ud83d\ude00"}`, `{"model":"\ud800"}`,
	`{"model":"\ud800A"}`, `{"model":"\udc00\ud800"}`, `{"model":"\ud83d\u00e9"}`, `{"model":"\ud800\uZZZZ"}`, `{"model":"\uD83D\uDE00\u00E9"}`,
	`{"model":"\u12"}`, `{"model":"\x"}`, "{\"model\":\"tab\tinside\"}", "{\"model\":\"\u4e16\u754c-\u00e9\"}", "{\"model\":\"\xff\xfe\xc3\"}",
	"{\"model\":\"a\x00b\"}", `{"model":"unterminated`, `{"model":42}`, `{"model":["a"]}`, `{"model":true}`,
	// Numbers.
	`{"vector":[-0,0,-0.0,1e-999,1E+2,1.5e300,123456789012345678901234567890]}`, `{"vector":[1e999]}`, `{"vector":[-1e999]}`,
	`{"vector":[01]}`, `{"vector":[1.]}`, `{"vector":[.5]}`, `{"vector":[+1]}`, `{"vector":[1e]}`, `{"vector":[-]}`, `{"vector":[0x10]}`,
	`{"vector":[NaN]}`, `{"vector":[Infinity]}`, `{"vector":[1_000]}`, `{"vector":["1"]}`, `{"vector":[true]}`, `{"vector":[[1]]}`, `{"vector":1}`,
	`{"stride":1.0}`, `{"stride":1e2}`, `{"timeout_ms":1.0}`, `{"timeout_ms":1e2}`, `{"timeout_ms":-0}`, `{"pad":-1}`,
	`{"timeout_ms":9223372036854775807}`, `{"timeout_ms":9223372036854775808}`, `{"stride":"1"}`, `{"stride":[1]}`,
	// Shapes.
	`{"m":[[]],"x":[[]]}`, `{"m":[[1],[]],"x":[[1]]}`, `{"m":[[1]],"x":[[]]}`, `{"m":[[1]],"x":[[1,2],[3]]}`, `{"m":[[[1]]],"x":[[1]]}`,
	`{"m":[1],"x":[[1]]}`, `{"m":{},"x":[[1]]}`, `{"input":[[[1,2],[3]]],"kernels":[[[[1]]]]}`, `{"input":[[[1]],[[1],[2]]],"kernels":[[[[1]],[[1]]]]}`,
	`{"input":[[[1]]],"kernels":[[[[1]]],[[[1,2]]]]}`, `{"input":[[[1]]],"kernels":[[[[1]]],[[[1]],[[1]]]]}`, `{"input":[],"kernels":[]}`,
	`{"model":"vggfc-micro","vector":[1],"volume":[[[1,2],[3]]]}`, `{"volume":[[[1]],[[1,2],[3]]]}`,
	// Syntax around and inside unknown fields.
	`{`, `}`, `{}`, ` { } `, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a":1 "b":2}`, `{"a":1}}`, `[]`, `[{}]`, `"m"`, `42`, `true`,
	`{"u":{"a":[1,{"b":null,"c":[true,false,"s\n"]}],"d":{}},"e":[],"f":[[],{}]}`, `{"u":[1,]}`, `{"u":[,1]}`, `{"u":{"a":1,}}`,
	`{"u":{"a"}}`, `{"u":{1:2}}`, `{"u":[1 2]}`, `{"u":tru}`, `{"u":truee}`, `{"u":fals}`, `{"u":nul}`, `{"u":[}`, `{"u":{]}`, `{"u":[{]}`,
	`{"u":"\ud800"}`, `{"u":"\q"}`, `{"u":-}`, `{"u":1.e1}`, `{"u":[[[[[[[[[[1]]]]]]]]]]}`, "\ufeff{}", "{\"u\":\"\x01\"}", `{"u":1}` + "\x00",
}

// deepBodies probe the nesting limit. They are held to the same property as
// the fuzz corpus but kept out of it: a megabyte seed stalls the mutator.
func deepBodies() []string {
	return []string{
		`{"u":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`, // the deepest body json takes
		`{"u":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,     // one deeper: refused
		`{"x":` + strings.Repeat(`{"a":`, maxDepth) + `1` + strings.Repeat("}", maxDepth) + `}`,
		`{"u":` + strings.Repeat("[", 1<<20), // 1 MB of '[': refused at maxDepth, no recursion
	}
}

func TestDecodeNestingLimit(t *testing.T) {
	for _, body := range deepBodies() {
		diffMatMul(t, []byte(body))
		diffConv2D(t, []byte(body))
		diffInfer(t, []byte(body))
	}
	var req MatMulRequest
	bodies := deepBodies()
	if err := DecodeMatMul([]byte(bodies[0]), &req, AllFields); err != nil {
		t.Errorf("%d open containers refused: %v", maxDepth, err)
	}
	for _, body := range bodies[1:] {
		if err := DecodeMatMul([]byte(body), &req, AllFields); err == nil {
			t.Errorf("%q… accepted, want it refused at the nesting limit", body[:16])
		}
	}
}

func addSeeds(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
}

func FuzzDecodeMatMul(f *testing.F) {
	addSeeds(f)
	f.Fuzz(diffMatMul)
}

func FuzzDecodeConv2D(f *testing.F) {
	addSeeds(f)
	f.Fuzz(diffConv2D)
}

func FuzzDecodeInfer(f *testing.F) {
	addSeeds(f)
	f.Fuzz(diffInfer)
}

// TestDecodeDivergence pins the two named corpus entries on which the
// decoder and encoding/json read different values (DESIGN §3d).
func TestDecodeDivergence(t *testing.T) {
	body := []byte(`{"x":[[5]],"x":[[null]],"m":[[1]]}`)
	if !divergent(body) {
		t.Fatal("the duplicate-key null-element body is not recognised as divergent")
	}
	var got, want MatMulRequest
	if err := DecodeMatMul(body, &got, AllFields); err != nil {
		t.Fatal(err)
	}
	if err := oracleDecode(body, &want); err != nil {
		t.Fatal(err)
	}
	if got.X[0][0] != 0 || want.X[0][0] != 5 {
		t.Fatalf("decoder reads %v, encoding/json %v; want 0 and the stale 5", got.X[0][0], want.X[0][0])
	}
	for _, plain := range []string{`{"x":[[null]],"m":[[1]]}`, `{"m":[[1]],"m":[[2]],"x":[[3]]}`} {
		if divergent([]byte(plain)) {
			t.Errorf("%s is compared bit for bit, it must not count as divergent", plain)
		}
	}
}

// --- cost -------------------------------------------------------------------

// benchBodies are the three request shapes the standing benchmark's serving
// workloads send, marshaled exactly as loadgen marshals them.
func benchBody(tb testing.TB, shape string) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(22))
	var req MatMulRequest
	switch shape {
	case "wide": // serve_wide: 64×64 by name, 64 columns
		req = MatMulRequest{Model: "lg-w000@v1", X: testMatrix(rng, 64, 64)}
	case "cold": // inline 32×32 + 32×4: all of serve_cold, three matmuls in four elsewhere
		req = MatMulRequest{M: testMatrix(rng, 32, 32), X: testMatrix(rng, 32, 4)}
	case "hot": // 32×32 by name, 4 columns: one matmul in four of serve_mixed / serve_open_hot
		req = MatMulRequest{Model: "lg-w003@v1", X: testMatrix(rng, 32, 4)}
	}
	b, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

var decodeSink MatMulRequest

func benchDecode(b *testing.B, shape string) {
	body := benchBody(b, shape)
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req MatMulRequest
			if err := DecodeMatMul(body, &req, AllFields); err != nil {
				b.Fatal(err)
			}
			if req.Model == "" {
				if err := validateMatMul(&req); err != nil {
					b.Fatal(err)
				}
			}
			decodeSink = req
		}
	})
	b.Run("parent", func(b *testing.B) {
		// By name the parent re-scanned x alone, against the model's m: one
		// row of the width x needs stands in for it.
		modelM := [][]float64{make([]float64, 64)}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req MatMulRequest
			err := oracleDecode(body, &req)
			if err == nil && req.Model != "" {
				modelM[0] = modelM[0][:len(req.X)]
				err = oracleValidateMatMulX("", modelM, req.X)
			} else if err == nil {
				err = oracleValidateMatMul(&req)
			}
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = req
		}
	})
}

func BenchmarkDecodeWide(b *testing.B) { benchDecode(b, "wide") }
func BenchmarkDecodeCold(b *testing.B) { benchDecode(b, "cold") }
func BenchmarkDecodeHot(b *testing.B)  { benchDecode(b, "hot") }

// TestDecodeAllocations pins what a decode costs the heap: a handful of
// allocations — the value pool, one row-header pool per nesting level, the
// model name — however many values the body carries.
func TestDecodeAllocations(t *testing.T) {
	measure := func(body []byte) (allocs, bytes float64) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req MatMulRequest
				if err := DecodeMatMul(body, &req, AllFields); err != nil {
					b.Fatal(err)
				}
				decodeSink = req
			}
		})
		return float64(res.AllocsPerOp()), float64(res.AllocedBytesPerOp())
	}
	for _, tc := range []struct {
		shape     string
		maxAllocs float64
		maxBytes  float64
	}{
		{"wide", 16, 48 << 10},
		{"cold", 20, 16 << 10},
	} {
		allocs, bytes := measure(benchBody(t, tc.shape))
		t.Logf("%s: %.0f allocations, %.0f bytes", tc.shape, allocs, bytes)
		if allocs > tc.maxAllocs || bytes > tc.maxBytes {
			t.Errorf("%s body: %.0f allocations / %.0f bytes, want at most %.0f / %.0f",
				tc.shape, allocs, bytes, tc.maxAllocs, tc.maxBytes)
		}
	}

	rng := rand.New(rand.NewSource(1))
	small, _ := json.Marshal(MatMulRequest{M: testMatrix(rng, 8, 8), X: testMatrix(rng, 8, 2)})
	large, _ := json.Marshal(MatMulRequest{M: testMatrix(rng, 96, 96), X: testMatrix(rng, 96, 16)})
	sa, _ := measure(small)
	la, _ := measure(large)
	if la != sa {
		t.Errorf("allocations grow with the body: %.0f for 80 values, %.0f for 10752", sa, la)
	}
}
