package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// oracleRequest is ClassifyRequest with one change: a sample value is a
// pointer, so that a null in "samples" — which Unmarshal into
// [][]float32 passes over in silence — shows up as a nil.
type oracleRequest struct {
	Model     string       `json:"model"`
	Policy    string       `json:"policy"`
	Samples   [][]*float32 `json:"samples"`
	TimeoutMS int          `json:"timeout_ms,omitempty"`
}

// oracle decodes body with encoding/json. ok is what decodeClassify has
// to agree with: Unmarshal took the body and left no nil in the samples.
func oracle(body []byte) (req oracleRequest, ok bool) {
	if json.Unmarshal(body, &req) != nil {
		return req, false
	}
	for _, row := range req.Samples {
		if row == nil {
			return req, false
		}
		for _, v := range row {
			if v == nil {
				return req, false
			}
		}
	}
	return req, true
}

// agreesWithOracle holds decodeClassify against encoding/json on one
// body: the same verdict and, when it is "yes", the same four values —
// the floats by their bits. It decodes the body three times: into
// nothing, and into two recycled buffers still full of NaNs, one too
// small for the samples and one large enough, which the decoder must
// fill rather than replace. It returns the verdict.
func agreesWithOracle(t *testing.T, body []byte) bool {
	t.Helper()
	want, ok := oracle(body)
	for _, dst := range [][]float32{nil, nanBuffer(1), nanBuffer(len(body) + 1)} {
		got, err := decodeClassify(body, dst)
		if (err == nil) != ok {
			t.Fatalf("body %q into %d floats: decodeClassify error %v, oracle accepts = %v", clip(body), cap(dst), err, ok)
		}
		if !ok {
			continue
		}
		agreesWithRequest(t, body, got, want)
		if len(got.flat) > 1 && cap(dst) > len(body) && &got.flat[0] != &dst[0] {
			t.Fatalf("body %q: %d values decoded into a new slice, not the %d floats given", clip(body), len(got.flat), cap(dst))
		}
	}
	return ok
}

// nanBuffer is a recycled sample buffer of n floats, each a NaN.
func nanBuffer(n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		b[i] = float32(math.NaN())
	}
	return b
}

// agreesWithRequest holds one decoded body against the oracle's.
func agreesWithRequest(t *testing.T, body []byte, got classifyBatch, want oracleRequest) {
	t.Helper()
	if got.model != want.Model || got.policy != want.Policy || got.timeoutMS != want.TimeoutMS {
		t.Fatalf("body %q: got (%q, %q, %d), oracle (%q, %q, %d)", clip(body),
			got.model, got.policy, got.timeoutMS, want.Model, want.Policy, want.TimeoutMS)
	}
	if got.rows != len(want.Samples) {
		t.Fatalf("body %q: %d rows, oracle %d", clip(body), got.rows, len(want.Samples))
	}
	ragged, raggedLen, k := -1, 0, 0
	for i, row := range want.Samples {
		if i == 0 && got.width != len(row) {
			t.Fatalf("body %q: row 0 has %d values, oracle %d", clip(body), got.width, len(row))
		}
		if ragged < 0 && len(row) != len(want.Samples[0]) {
			ragged, raggedLen = i, len(row)
		}
		for j, v := range row {
			if k >= len(got.flat) || math.Float32bits(got.flat[k]) != math.Float32bits(*v) {
				t.Fatalf("body %q: sample %d value %d differs from the oracle's %v (%#x)",
					clip(body), i, j, *v, math.Float32bits(*v))
			}
			k++
		}
	}
	if k != len(got.flat) {
		t.Fatalf("body %q: %d values, oracle %d", clip(body), len(got.flat), k)
	}
	if got.ragged != ragged || got.raggedLen != raggedLen {
		t.Fatalf("body %q: first ragged row (%d, len %d), oracle (%d, len %d)",
			clip(body), got.ragged, got.raggedLen, ragged, raggedLen)
	}
}

func clip(b []byte) []byte {
	if len(b) > 120 {
		return append(append([]byte(nil), b[:120]...), "…"...)
	}
	return b
}

// one wraps a single sample value in a request.
func one(value string) string { return `{"model":"m","samples":[[` + value + `]]}` }

// decodeTable is every shape of body the decoder has a rule for. ok is
// the verdict, written down so that the table pins it and the oracle
// only confirms it.
var decodeTable = []struct {
	name string
	body string
	ok   bool
}{
	{"plain", `{"model":"simple","policy":"lowest-latency","samples":[[0.1,0.2],[0.3,0.4]],"timeout_ms":50}`, true},
	{"model after samples", `{"samples":[[1,2]],"model":"simple"}`, true},
	{"upper-case keys", `{"MODEL":"a","Policy":"b","SAMPLES":[[1]],"TIMEOUT_MS":7}`, true},
	{"escaped key", `{"mod\u0065l":"a","s\u0061mples":[[2]]}`, true},
	{"long-s key folds to samples", `{"ſampleſ":[[3]],"timeout_mſ":4}`, true},
	{"kelvin sign folds to nothing here", `{"\u212Aey":[[3]]}`, true},
	{"key with an escaped quote is unknown", `{"model\"":"x","model":"y"}`, true},
	{"duplicate scalars, last wins", `{"model":"a","model":"b","timeout_ms":1,"timeout_ms":2}`, true},
	{"duplicate samples, last wins", `{"samples":[[1,2,3],[4,5,6]],"samples":[[7]]}`, true},
	{"duplicate samples, later empty", `{"samples":[[1]],"samples":[]}`, true},
	{"later null samples is no samples", `{"samples":[[1]],"samples":null}`, true},
	{"later null model changes nothing", `{"model":"a","model":null,"policy":"p","policy":null,"timeout_ms":3,"timeout_ms":null}`, true},
	{"all null", `{"model":null,"policy":null,"samples":null,"timeout_ms":null}`, true},
	{"ragged before model", `{"samples":[[1,2],[3],[4,5,6]],"model":"m"}`, true},
	{"ragged after model", `{"model":"m","samples":[[1,2],[3,4],[5]]}`, true},
	{"no rows", `{"samples":[]}`, true},
	{"one empty row", `{"samples":[[]]}`, true},
	{"empty rows", `{"samples":[[],[],[1]]}`, true},
	{"empty object", `{}`, true},
	{"top-level null", ` null `, true},
	{"top-level array", `[]`, false},
	{"top-level string", `"x"`, false},
	{"top-level number", `1`, false},
	{"empty body", ``, false},
	{"only space", `  `, false},
	{"byte-order mark", "\xef\xbb\xbf{}", false},

	{"minus zero", one(`-0`), true},
	{"minus zero point zero", one(`-0.0`), true},
	{"exponent forms", one(`1E+2,1e2,1e-2,1E-02,0e0,-0e-0,12.5e+1`), true},
	{"underflow to zero", one(`1e-46,-1e-46`), true},
	{"denormal", one(`1e-45,1.4e-45`), true},
	{"largest float32", one(`3.4028235e38,-3.4028235e38`), true},
	{"rounds to the largest float32", one(`3.4028235677973366e38`), true},
	{"out of range", one(`1e39`), false},
	{"out of range by rounding", one(`3.4028236e38`), false},
	{"huge exponent", one(`1e99999999999999999999`), false},
	{"huge negative exponent", one(`1e-99999999999999999999`), true},
	{"zero with a huge exponent", one(`0e99999999999999999999`), true},
	{"2^24", one(`16777216,16777215,16777217,16777218`), true},
	{"seven digits", one(`0.9999999,9999999,9.999999,1234567e3,1234567e-10,8388609`), true},
	{"power of ten at the edge", one(`1e10,1e11,1e-10,1e-11,16777215e10,16777215e-10`), true},
	{"17 digits", one(`0.10000000149011612,0.30000001192092896`), true},
	{"halfway cases", one(`1.00000005960464477539062500,1.00000017881393432617187500,16777217.0`), true},
	{"many zeros", one(`0.00000000000000000000000000000000000001,1000000000000000000000000000000`), true},
	{"long mantissa", one(`0.` + strings.Repeat("3", 400)), true},
	{"leading zero", one(`01`), false},
	{"minus leading zero", one(`-01`), false},
	{"bare point", one(`1.`), false},
	{"no integer part", one(`.5`), false},
	{"bare exponent", one(`1e`), false},
	{"bare signed exponent", one(`1e+`), false},
	{"plus sign", one(`+1`), false},
	{"bare minus", one(`-`), false},
	{"hex", one(`0x10`), false},
	{"infinity", one(`Infinity`), false},
	{"nan", one(`NaN`), false},
	{"underscore", one(`1_0`), false},
	{"two numbers", one(`1 2`), false},
	{"string value", one(`"1"`), false},
	{"bool value", one(`true`), false},
	{"object value", one(`{}`), false},
	{"array value", one(`[1]`), false},
	{"trailing comma in a row", one(`1,`), false},
	{"leading comma in a row", one(`,1`), false},
	{"trailing comma in samples", `{"samples":[[1],]}`, false},
	{"trailing comma in the object", `{"samples":[[1]],}`, false},
	{"row is a number", `{"samples":[1]}`, false},
	{"row is an object", `{"samples":[{}]}`, false},
	{"samples is an object", `{"samples":{}}`, false},
	{"samples is a string", `{"samples":"x"}`, false},

	{"null value", one(`null`), false},
	{"null value among numbers", `{"samples":[[1,2],[3,null]]}`, false},
	{"null row", `{"samples":[[1],null]}`, false},
	{"null value in a duplicate that lost", `{"samples":[[null]],"samples":[[1]]}`, true},
	{"null followed by a fraction", `{"samples":[[null.5]],"samples":[[1]]}`, false},
	{"minus null", one(`-null`), false},
	{"nul", one(`nul`), false},
	{"nullx", `{"model":nullx}`, false},

	{"timeout fraction", `{"timeout_ms":1.5}`, false},
	{"timeout whole fraction", `{"timeout_ms":1.0}`, false},
	{"timeout exponent", `{"timeout_ms":1e2}`, false},
	{"timeout string", `{"timeout_ms":"5"}`, false},
	{"timeout bool", `{"timeout_ms":true}`, false},
	{"timeout 2^63-1", `{"timeout_ms":9223372036854775807}`, true},
	{"timeout 2^63", `{"timeout_ms":9223372036854775808}`, false},
	{"timeout 2^64", `{"timeout_ms":18446744073709551616}`, false},
	{"timeout -2^63", `{"timeout_ms":-9223372036854775808}`, true},
	{"timeout minus zero", `{"timeout_ms":-0}`, true},
	{"timeout leading zero", `{"timeout_ms":05}`, false},
	{"model number", `{"model":5}`, false},
	{"model array", `{"model":["a"]}`, false},
	{"policy bool", `{"policy":false}`, false},

	{"model escapes", `{"model":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00"}`, true},
	{"model lone surrogate", `{"model":"\ud800x"}`, true},
	{"model invalid UTF-8 becomes U+FFFD", "{\"model\":\"a\xffb\xc3\"}", true},
	{"model UTF-8", `{"model":"modèle"}`, true},
	{"model bad escape", `{"model":"\x"}`, false},
	{"model short \\u", `{"model":"\u12"}`, false},
	{"model bad \\u", `{"model":"\u12g4"}`, false},
	{"model raw newline", "{\"model\":\"a\nb\"}", false},
	{"model raw NUL", "{\"model\":\"a\x00b\"}", false},
	{"model unterminated", `{"model":"abc`, false},
	{"model ends in a backslash", `{"model":"abc\`, false},

	{"unknown fields of every kind", `{"a":1,"b":-2.5e3,"c":"s","d":true,"e":false,"f":null,"g":[],"h":{},"i":[1,[2,{"j":[]}],"k"],"l":{"m":{"n":[{}]}},"samples":[[1]]}`, true},
	{"skipped string, control byte", "{\"x\":\"a\tb\"}", false},
	{"skipped string, bad escape", `{"x":"\q"}`, false},
	{"skipped string, bad \\u", `{"x":["\u00zz"]}`, false},
	{"skipped string, invalid UTF-8 passes", "{\"x\":\"\xff\xfe\"}", true},
	{"skipped key, bad escape", `{"x":{"\q":1}}`, false},
	{"skipped number, leading zero", `{"x":[01]}`, false},
	{"skipped literal, misspelt", `{"x":tru}`, false},
	{"skipped literal, upper case", `{"x":True}`, false},
	{"skipped array, trailing comma", `{"x":[1,]}`, false},
	{"skipped array, leading comma", `{"x":[,1]}`, false},
	{"skipped array, closed as an object", `{"x":[1}}`, false},
	{"skipped object, closed as an array", `{"x":{"a":1]}`, false},
	{"skipped object, trailing comma", `{"x":{"a":1,}}`, false},
	{"skipped object, no colon", `{"x":{"a" 1}}`, false},
	{"skipped object, bare key", `{"x":{a:1}}`, false},
	{"skipped object, number key", `{"x":{1:1}}`, false},
	{"skipped object, missing value", `{"x":{"a":}}`, false},
	{"skipped array, two values", `{"x":[1 2]}`, false},
	{"skipped array, unclosed", `{"x":[[1]`, false},
	{"no value", `{"x":}`, false},
	{"no colon", `{"x" 1}`, false},
	{"bare key", `{x:1}`, false},
	{"single quotes", `{'x':1}`, false},
	{"no comma between fields", `{"x":1 "y":2}`, false},
	{"comment", `{"x":1 /* no */}`, false},

	{"white space everywhere", " \t\r\n{ \"model\" \n:\t\"m\" , \"samples\" : [ [ 1 , 2 ] , [ 3 ,\r\n4 ] ] , \"x\" : [ 1 , { \"y\" : null } ] } \n", true},
	{"form feed is not space", "{\"samples\":[[1,\f2]]}", false},
	{"trailing object", `{"samples":[[1]]}{"model":"m"}`, false},
	{"trailing letter", `{"samples":[[1]]}x`, false},
	{"trailing NUL", "{}\x00", false},
	{"truncated in a row", `{"samples":[[1,2`, false},
	{"truncated in a number", `{"samples":[[1,2.`, false},
	{"truncated after a row", `{"samples":[[1,2]`, false},
	{"truncated after samples", `{"samples":[[1,2]]`, false},
	{"truncated in a key", `{"sam`, false},
	{"truncated after the brace", `{`, false},

	{"deepest unknown field allowed", `{"x":` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `}`, true},
	{"one level too deep", `{"x":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`, false},
	{"10 001 levels", `{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, false},
	{"deep objects", `{"x":` + strings.Repeat(`{"a":`, maxNesting-1) + `1` + strings.Repeat("}", maxNesting-1) + `}`, true},
	{"objects one level too deep", `{"x":` + strings.Repeat(`{"a":`, maxNesting) + `1` + strings.Repeat("}", maxNesting) + `}`, false},
	{"mixed nesting", `{"x":` + strings.Repeat(`[{"a":`, 3000) + `[]` + strings.Repeat("}]", 3000) + `}`, true},
}

// The table's verdicts hold, and encoding/json gives the same verdict
// and the same values for every row of it.
func TestDecodeClassifyAgainstOracle(t *testing.T) {
	for _, tc := range decodeTable {
		t.Run(tc.name, func(t *testing.T) {
			if got := agreesWithOracle(t, []byte(tc.body)); got != tc.ok {
				_, err := decodeClassify([]byte(tc.body), nil)
				t.Fatalf("accepted = %v, want %v (error: %v)", got, tc.ok, err)
			}
		})
	}
}

// What the table's verdicts cannot show: the values themselves.
func TestDecodeClassifyValues(t *testing.T) {
	got, err := decodeClassify([]byte(`{"samples":[[1,2,3],[4,5]],"TIMEOUT_MS":-3,"model":"a\u0062","model":null,"policy":"p","samples":[[0.5,-0,1e2],[16777217,1e-46,0.001],[7]]}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.model != "ab" || got.policy != "p" || got.timeoutMS != -3 {
		t.Errorf("scalars = (%q, %q, %d)", got.model, got.policy, got.timeoutMS)
	}
	want := []float32{0.5, float32(math.Copysign(0, -1)), 100, 16777216, 0, 0.001, 7}
	if len(got.flat) != len(want) {
		t.Fatalf("flat = %v, want %v", got.flat, want)
	}
	for i := range want {
		if math.Float32bits(got.flat[i]) != math.Float32bits(want[i]) {
			t.Errorf("value %d = %v (%#x), want %v", i, got.flat[i], math.Float32bits(got.flat[i]), want[i])
		}
	}
	if got.rows != 3 || got.width != 3 || got.ragged != 2 || got.raggedLen != 1 {
		t.Errorf("rows %d, width %d, ragged (%d, %d); want 3, 3, (2, 1)", got.rows, got.width, got.ragged, got.raggedLen)
	}
	if row, n, found := got.wrongRow(3); !found || row != 2 || n != 1 {
		t.Errorf("wrongRow(3) = (%d, %d, %v), want (2, 1, true)", row, n, found)
	}
	if row, n, found := got.wrongRow(4); !found || row != 0 || n != 3 {
		t.Errorf("wrongRow(4) = (%d, %d, %v), want (0, 3, true)", row, n, found)
	}

	// The error for a null names the first sample it is in.
	for body, sample := range map[string]string{
		`{"samples":[[1],[2],[3,null],[null]]}`: "sample 2",
		`{"samples":[[1],null,[null]]}`:         "sample 1",
	} {
		if _, err := decodeClassify([]byte(body), nil); err == nil || !strings.Contains(err.Error(), sample+":") {
			t.Errorf("%s: error %v, want one naming %s", body, err, sample)
		}
	}
}

// Every float32 a client can print comes back as itself, on the exact
// path and off it: the shortest form strconv prints, fixed and
// exponent notation, and every digit count up to the seventeen of a
// float64 printer.
func TestDecodeClassifyRoundTripsFloat32(t *testing.T) {
	var body []byte
	var want []float32
	add := func(v float32) {
		for _, f := range []struct {
			fmt  byte
			prec int
		}{{'g', -1}, {'f', -1}, {'e', -1}, {'g', 7}, {'g', 9}, {'g', 17}, {'f', 3}} {
			text := strconv.AppendFloat(nil, float64(v), f.fmt, f.prec, 32)
			back, err := strconv.ParseFloat(string(text), 32)
			if err != nil {
				t.Fatal(err)
			}
			body = append(append(body, text...), ',')
			want = append(want, float32(back))
		}
	}
	for k := 0; k <= 1000; k++ {
		add(float32(k) / 1000) // the benchmark's inputs
		add(-float32(k) / 255) // 8-bit pixels, scaled
	}
	for bits := uint32(1); bits < 0x7f800000; bits += 0x00051a37 {
		add(math.Float32frombits(bits))
		add(math.Float32frombits(bits | 1<<31))
	}
	body = append(append([]byte(`{"samples":[[`), body[:len(body)-1]...), "]]}"...)
	got, err := decodeClassify(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.flat) != len(want) {
		t.Fatalf("%d values, want %d", len(got.flat), len(want))
	}
	for i := range want {
		if math.Float32bits(got.flat[i]) != math.Float32bits(want[i]) {
			t.Fatalf("value %d: got %v (%#x), ParseFloat gives %v (%#x)", i,
				got.flat[i], math.Float32bits(got.flat[i]), want[i], math.Float32bits(want[i]))
		}
	}
	agreesWithOracle(t, body)
}

// A body that is nothing but nesting is refused at the cap without
// recursing and without memory to match: 32 MiB of '[' inside an
// unknown field, and the same at the top level.
func TestDecodeClassifyDeepBodyIsRefusedCheaply(t *testing.T) {
	deep := bytes.Repeat([]byte{'['}, maxClassifyBody)
	for name, body := range map[string][]byte{
		"top level":     deep,
		"unknown field": append([]byte(`{"x":`), deep[:maxClassifyBody-5]...),
		"samples":       append([]byte(`{"samples":`), deep[:maxClassifyBody-11]...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeClassify(body, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: 32 MiB of '[' was accepted", name)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 64<<10 {
			t.Errorf("%s: %d B allocated to refuse it", name, spent)
		}
	}
}

// A body of many repeated "samples" keys costs one scan for the values'
// bound, not one per key: 64 Ki keys in 1 MiB decode in about the time
// one key with as many bytes of rows does. Scanning the rest of the
// body at every key would take ~3·10¹⁰ byte reads here, and ~3·10¹³ at
// maxClassifyBody.
func TestDecodeClassifyRepeatedSamplesKeysScanOnce(t *testing.T) {
	const keys = 64 << 10
	repeated := append([]byte("{"), bytes.Repeat([]byte(`"samples":[[1]],`), keys)...)
	repeated = append(repeated, `"model":"m"}`...)
	// The same length as one key over rows of [1], 4 B each.
	rows := append([]byte(`{"samples":[[1]`), bytes.Repeat([]byte(`,[1]`), (len(repeated)-28)/4)...)
	rows = append(rows, `],"model":"m"}`...)
	fastest := func(body []byte) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			got, err := decodeClassify(body, nil)
			best = min(best, time.Since(start))
			if err != nil || got.model != "m" || got.rows == 0 || got.width != 1 {
				t.Fatalf("decoded %d rows of %d, model %q: %v", got.rows, got.width, got.model, err)
			}
		}
		return best
	}
	one, many := fastest(rows), fastest(repeated)
	t.Logf("%d B: one key %v, %d keys %v", len(repeated), one, keys, many)
	if many > 4*one+50*time.Millisecond {
		t.Errorf("%d repeated keys took %v to decode, one key over as many bytes %v", keys, many, one)
	}
}

// benchBody is a /v1/classify body of the benchmark's shape: rows × 784
// values k/1000, printed the way bench/workload.go prints them.
func benchBody(rows int) []byte {
	b := []byte(`{"model":"mnist-small","samples":[`)
	for r := 0; r < rows; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for e := 0; e < 784; e++ {
			if e > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(float32(1+(r*784+e)*7919%999)/1000), 'g', -1, 32)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// The allocation floor: a 64 × 784 body costs the batch's data and the
// model name, and the data is 4 B a value plus at most one 8 KB page of
// size-class rounding (491 KB in 655 allocations through Unmarshal).
func TestDecodeClassifyAllocations(t *testing.T) {
	body := benchBody(64)
	agreesWithOracle(t, body)
	var got classifyBatch
	allocs := testing.AllocsPerRun(20, func() { got, _ = decodeClassify(body, nil) })
	if allocs > 2 {
		t.Errorf("%v allocations per decode, want at most 2", allocs)
	}
	if got.rows != 64 || got.width != 784 || got.ragged >= 0 || len(got.flat) != 64*784 {
		t.Fatalf("decoded %d rows of %d (%d values)", got.rows, got.width, len(got.flat))
	}
	if limit := 64*784 + 8192/4; cap(got.flat) > limit {
		t.Errorf("batch data holds %d values, want at most %d", cap(got.flat), limit)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, _ = decodeClassify(body, nil)
		}
	})
	if per, limit := res.AllocedBytesPerOp(), int64(4*64*784+8192+64); per > limit {
		t.Errorf("%d B allocated per decode, want at most %d", per, limit)
	}
}

// FuzzDecodeClassify mutates the table: whatever the body, the decoder
// and encoding/json agree on the verdict and on every value.
func FuzzDecodeClassify(f *testing.F) {
	for _, tc := range decodeTable {
		if len(tc.body) < 4096 {
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { agreesWithOracle(t, body) })
}

var benchSink classifyBatch

// BenchmarkDecodeClassify decodes the three body shapes of bench/'s
// HTTP workloads, next to json.Unmarshal into ClassifyRequest — what
// the handler called before — on the same bytes.
func BenchmarkDecodeClassify(b *testing.B) {
	for _, rows := range []int{1, 8, 64} {
		body := benchBody(rows)
		b.Run(fmt.Sprintf("%dx784", rows), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := decodeClassify(body, nil)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
		b.Run(fmt.Sprintf("%dx784/json.Unmarshal", rows), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req ClassifyRequest
				if err := json.Unmarshal(body, &req); err != nil {
					b.Fatal(err)
				}
				benchSink.rows = len(req.Samples)
			}
		})
	}
}

// postRaw posts body to /v1/classify and returns the status and the
// "error" field of the reply.
func postRaw(t *testing.T, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(testServer(t).URL+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Error string `json:"error"`
	}
	decode(t, resp, &out)
	return resp.StatusCode, out.Error
}

// The handler's refusals keep their order and their words whichever
// side of "samples" the model arrives on: decoding, policy, no samples,
// unknown model, then the first sample of the wrong width.
func TestClassifyRefusalsAndTheirOrder(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		status     int
		msg        string
	}{
		{"null value", `{"model":"simple","samples":[[0.1,0.2,0.3,0.4],[0.1,null,0.3,0.4]]}`,
			400, "decoding request: sample 1: null where a number is wanted"},
		{"null row", `{"samples":[null],"model":"simple"}`,
			400, "decoding request: sample 0: null where a number is wanted"},
		{"null beats an unknown model", `{"model":"nope","samples":[[null]]}`,
			400, "decoding request: sample 0: null where a number is wanted"},
		{"out of range beats a bad policy", `{"policy":"weird","samples":[[1e39]]}`,
			400, `decoding request: offset 30: sample 0: strconv.ParseFloat: parsing "1e39": value out of range`},
		{"bad policy beats no samples", `{"policy":"weird"}`, 400, `unknown policy "weird"`},
		{"no samples beats an unknown model", `{"model":"nope","samples":[]}`, 400, "no samples"},
		{"null samples", `{"model":"simple","samples":null}`, 400, "no samples"},
		{"top-level null", `null`, 400, "no samples"},
		{"unknown model beats a wrong width", `{"model":"nope","samples":[[1]]}`, 404, `core: model "nope" not loaded`},
		{"wrong width, model first", `{"model":"simple","samples":[[1,2,3,4],[1,2,3],[1]]}`,
			400, "sample 1 has 3 values, model simple needs 4"},
		{"wrong width, model last", `{"samples":[[1,2,3,4],[1,2,3,4],[1,2,3,4,5]],"model":"simple"}`,
			400, "sample 2 has 5 values, model simple needs 4"},
		{"every row the same wrong width", `{"samples":[[1,2],[1,2]],"model":"simple"}`,
			400, "sample 0 has 2 values, model simple needs 4"},
		{"row 0 wrong, a later one right", `{"samples":[[1,2],[1,2,3,4]],"model":"simple"}`,
			400, "sample 0 has 2 values, model simple needs 4"},
		{"empty row", `{"model":"simple","samples":[[]]}`, 400, "sample 0 has 0 values, model simple needs 4"},
		{"timeout_ms as a string", `{"model":"simple","samples":[[1,2,3,4]],"timeout_ms":"5"}`,
			400, "decoding request: offset 53: timeout_ms: want an integer"},
	} {
		status, msg := postRaw(t, tc.body)
		if status != tc.status || msg != tc.msg {
			t.Errorf("%s: %d %q, want %d %q", tc.name, status, msg, tc.status, tc.msg)
		}
	}
	// And what is still served: folded and escaped keys, the model after
	// the samples, a duplicate that lost, white space.
	for _, body := range []string{
		`{"SAMPLES":[[0.1,0.2,0.3,0.4]],"Model":"simple"}`,
		`{"samples":[[0.1,0.2,0.3,0.4]],"model":"nope","model":"simple","x":[{"y":null}]}`,
		`{"samples":[[null]],"model":"simple","samples":[ [ 1e-1 , 2E-1 , 0.3 , -0 ] ] }` + "\n",
	} {
		if status, msg := postRaw(t, body); status != 200 {
			t.Errorf("%s: %d %q, want 200", body, status, msg)
		}
	}
}

// Eight clients post different batches at once, for long enough that
// every body buffer goes round the pool many times; each reply carries
// the labels of the batch it answers, so no buffer was ever two
// requests' at once. (Run under -race by `make race`.)
func TestConcurrentClassifyBodiesDoNotMix(t *testing.T) {
	ts := testServer(t)
	classify := func(body []byte) ([]int, error) {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var out ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return out.Classes, nil
	}
	const clients = 8
	rng := rand.New(rand.NewSource(17))
	bodies := make([][]byte, clients)
	want := make([][]int, clients)
	distinct := map[string]bool{}
	for c := range bodies {
		samples := make([][]float32, 1+c*37) // 1 … 260 rows: buffers of very different sizes
		for i := range samples {
			samples[i] = []float32{rng.Float32() * 8, rng.Float32() * 5, rng.Float32() * 7, rng.Float32() * 3}
		}
		bodies[c] = mustJSON(ClassifyRequest{Model: "simple", Samples: samples})
		var err error
		if want[c], err = classify(bodies[c]); err != nil {
			t.Fatal(err)
		}
		distinct[fmt.Sprint(want[c][:1], len(want[c]))] = true
	}
	if len(distinct) < clients {
		t.Fatalf("only %d distinct answers among %d bodies: a mix-up could go unseen", len(distinct), clients)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				got, err := classify(bodies[c])
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(want[c]) {
					t.Errorf("client %d round %d: labels of another batch: %v, want %v", c, round, got, want[c])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
