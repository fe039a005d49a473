package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// classifyBatch is a decoded POST /v1/classify body: the scalar fields
// of ClassifyRequest, and the samples already laid out as the batch
// tensor's data. The handler learns the model's input width only after
// decoding (the "model" key may follow "samples"), so the decoder
// records what the width check needs: how many rows there were, how
// wide row 0 was, and the first row that was not as wide as row 0.
// Nothing in it aliases the body it was decoded from.
type classifyBatch struct {
	model     string
	policy    string
	timeoutMS int
	flat      []float32 // every value of every row, in order
	rows      int
	width     int // len of row 0
	ragged    int // first row with len != width, -1 when there is none
	raggedLen int // len of that row
	null      int // first row that is null or holds one, -1 when there is none
}

// wrongRow reports the first sample that does not have per values, as
// a loop over [][]float32 comparing each len to per would find it.
func (c *classifyBatch) wrongRow(per int) (row, got int, found bool) {
	switch {
	case c.width != per:
		return 0, c.width, true
	case c.ragged >= 0:
		return c.ragged, c.raggedLen, true
	}
	return 0, 0, false
}

// maxNesting is encoding/json's cap on open arrays and objects, the
// top-level object included.
const maxNesting = 10000

// Exactly representable powers of ten: 10¹⁰ = 2¹⁰·5¹⁰ and 5¹⁰ < 2²⁴.
var float32pow10 = [...]float32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

var (
	keyModel   = []byte("model")
	keyPolicy  = []byte("policy")
	keySamples = []byte("samples")
	keyTimeout = []byte("timeout_ms")
	comma      = []byte{','}
)

// decoder walks one body once, front to back.
type decoder struct {
	b     []byte
	i     int
	sized bool // out.flat can hold every value left in b
}

// decodeClassify parses a /v1/classify body in a single pass. It
// accepts exactly what json.Unmarshal into ClassifyRequest accepts and
// yields the same values bit for bit, with one exception: a null where
// a sample or a sample value is expected is an error (Unmarshal leaves
// a 0 there). DESIGN.md §4 item 9 has the grammar and the argument.
//
// The samples are decoded into dst's backing when it can hold them,
// whatever it held before; out.flat is then dst[:n]. Otherwise they go
// to a new slice, which out.flat returns for the caller to keep.
func decodeClassify(body []byte, dst []float32) (classifyBatch, error) {
	out := classifyBatch{flat: dst[:0], ragged: -1, null: -1}
	d := decoder{b: body}
	if err := d.request(&out); err != nil {
		return out, err
	}
	// Said last, of the "samples" that won: an earlier duplicate's null
	// is as overwritten as its numbers are.
	if out.null >= 0 {
		return out, fmt.Errorf("sample %d: null where a number is wanted", out.null)
	}
	return out, nil
}

// request decodes the top-level value. Keys match field names the way
// Unmarshal matches them: under Unicode simple case folding.
func (d *decoder) request(out *classifyBatch) error {
	d.space()
	switch c := d.cur(); {
	case c == 'n':
		// Unmarshal of a top-level null leaves the struct untouched.
		if err := d.null(); err != nil {
			return err
		}
		return d.end()
	case c != '{':
		return d.errorf("want a JSON object")
	}
	d.i++
	d.space()
	if d.cur() == '}' {
		d.i++
		return d.end()
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case bytes.EqualFold(key, keySamples):
			err = d.samples(out)
		case bytes.EqualFold(key, keyModel):
			err = d.str(&out.model)
		case bytes.EqualFold(key, keyPolicy):
			err = d.str(&out.policy)
		case bytes.EqualFold(key, keyTimeout):
			err = d.integer(&out.timeoutMS)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		d.space()
		switch d.cur() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return d.end()
		default:
			return d.errorf("want ',' or '}' after a field")
		}
	}
}

// cur is the byte at d.i, or 0 past the end: NUL is legal nowhere in
// JSON outside a string, and strings are scanned under explicit bounds.
func (d *decoder) cur() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// errorf reports what is wrong at d.i.
func (d *decoder) errorf(format string, args ...interface{}) error {
	msg := fmt.Sprintf(format, args...)
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input: %s", msg)
	}
	return fmt.Errorf("offset %d: %s", d.i, msg)
}

// hasPrefix reports whether b[i:] starts with lit.
func hasPrefix(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

// end checks that only white space follows the top-level value.
func (d *decoder) end() error {
	d.space()
	if d.i < len(d.b) {
		return d.errorf("invalid character %q after top-level value", d.b[d.i])
	}
	return nil
}

// literal steps over lit, one of true, false and null.
func (d *decoder) literal(lit string) error {
	if !hasPrefix(d.b, d.i, lit) {
		return d.errorf("invalid literal")
	}
	d.i += len(lit)
	return nil
}

func (d *decoder) null() error { return d.literal("null") }

// scanString validates the string token that opens at b[i] against the
// JSON grammar and returns the index past its closing quote. plain
// reports that the bytes between the quotes are the string: no escape,
// and no byte that might be invalid UTF-8 for Unmarshal to replace.
func (d *decoder) scanString() (end int, plain bool, err error) {
	if d.cur() != '"' {
		return 0, false, d.errorf("want a string")
	}
	b := d.b
	plain = true
	for i := d.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) || !isHex(b[i+k]) {
						d.i = i + k
						return 0, false, d.errorf("invalid \\u escape in string")
					}
				}
				i += 4
			default:
				d.i = i
				return 0, false, d.errorf("invalid escape %q in string", b[i])
			}
		case c < ' ':
			d.i = i
			return 0, false, d.errorf("control character %q in string", c)
		case c >= 0x80:
			plain = false
		}
	}
	d.i = len(b)
	return 0, false, d.errorf("unterminated string")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// text returns the value of the string token at d.i and steps past it.
// The result aliases the body when the token is plain; the rare token
// with an escape or a non-ASCII byte is unquoted by encoding/json, so
// surrogate pairs and U+FFFD replacement are its, not a second copy's.
func (d *decoder) text() ([]byte, error) {
	end, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	tok := d.b[d.i:end]
	d.i = end
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// key reads `"name" :` and leaves d at the field's value.
func (d *decoder) key() ([]byte, error) {
	key, err := d.text()
	if err != nil {
		return nil, err
	}
	return key, d.colon()
}

// colon steps over the ':' between a key and its value.
func (d *decoder) colon() error {
	d.space()
	if d.cur() != ':' {
		return d.errorf("want ':' after a key")
	}
	d.i++
	d.space()
	return nil
}

// skipKey is key for a field of an object being skipped.
func (d *decoder) skipKey() error {
	if err := d.skipString(); err != nil {
		return err
	}
	return d.colon()
}

// skipString steps over a string token nobody reads.
func (d *decoder) skipString() error {
	end, _, err := d.scanString()
	if err == nil {
		d.i = end
	}
	return err
}

// str decodes a string field; null leaves *dst as it was, as Unmarshal
// does for a string.
func (d *decoder) str(dst *string) error {
	switch d.cur() {
	case 'n':
		return d.null()
	case '"':
		s, err := d.text()
		if err != nil {
			return err
		}
		*dst = string(s) // a copy: the body goes back to its pool
		return nil
	}
	return d.errorf("want a string")
}

// integer decodes timeout_ms under Unmarshal's rule for an int field: a
// JSON number that strconv.ParseInt takes, so no fraction, no exponent.
func (d *decoder) integer(dst *int) error {
	if d.cur() == 'n' {
		return d.null()
	}
	start := d.i
	if d.scanNumber() != nil {
		return d.errorf("timeout_ms: want an integer")
	}
	n, err := strconv.ParseInt(string(d.b[start:d.i]), 10, 0)
	if err != nil {
		d.i = start
		return d.errorf("timeout_ms: %v", err)
	}
	*dst = int(n)
	return nil
}

// scanNumber steps over one number of the strict JSON grammar:
// -? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?
func (d *decoder) scanNumber() error {
	if d.cur() == '-' {
		d.i++
	}
	switch c := d.cur(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		for isDigit(d.cur()) {
			d.i++
		}
	default:
		return d.errorf("want a value")
	}
	if d.cur() == '.' {
		d.i++
		if !isDigit(d.cur()) {
			return d.errorf("want a digit after the decimal point")
		}
		for isDigit(d.cur()) {
			d.i++
		}
	}
	if c := d.cur(); c == 'e' || c == 'E' {
		d.i++
		if c := d.cur(); c == '+' || c == '-' {
			d.i++
		}
		if !isDigit(d.cur()) {
			return d.errorf("want a digit in the exponent")
		}
		for isDigit(d.cur()) {
			d.i++
		}
	}
	return nil
}

// samples decodes the array of rows into out.flat. A repeated "samples"
// key starts over, so the last one wins as it does in Unmarshal; null
// is "no samples".
func (d *decoder) samples(out *classifyBatch) error {
	out.flat, out.rows, out.width, out.ragged, out.raggedLen, out.null = out.flat[:0], 0, 0, -1, 0, -1
	switch d.cur() {
	case 'n':
		return d.null()
	case '[':
	default:
		return d.errorf("samples: want an array")
	}
	d.i++
	d.space()
	if d.cur() == ']' {
		d.i++
		return nil
	}
	// One value needs one comma, after it or after its row: the count
	// bounds the values, and an allocation, when dst is too small for
	// them, to 4 B per byte. It is taken once per body, at the first
	// "samples" that holds a row; a repeated key starts further on, so
	// the same capacity holds it, and a body of many repeated keys costs
	// one scan, not one per key.
	if !d.sized {
		if n := bytes.Count(d.b[d.i:], comma) + 1; cap(out.flat) < n {
			out.flat = make([]float32, 0, n)
		}
		d.sized = true
	}
	for {
		before, null := len(out.flat), false
		switch d.cur() {
		case '[':
			msg := ""
			if d.i, out.flat, null, msg = parseRow(d.b, d.i, out.flat); msg != "" {
				return d.errorf("sample %d: %s", out.rows, msg)
			}
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
			null = true
		default:
			return d.errorf("sample %d: want an array", out.rows)
		}
		if null && out.null < 0 {
			out.null = out.rows
		}
		n := len(out.flat) - before
		switch {
		case out.rows == 0:
			out.width = n
		case n != out.width && out.ragged < 0:
			out.ragged, out.raggedLen = out.rows, n
		}
		out.rows++
		d.space()
		switch d.cur() {
		case ',':
			d.i++
			d.space()
		case ']':
			d.i++
			return nil
		default:
			return d.errorf("want ',' or ']' after sample %d", out.rows-1)
		}
	}
}

// parseRow appends the numbers of the row that opens at b[i] to flat
// and returns the index past its ']'. A number is scanned and converted
// in the same loop. Conversion takes strconv's exact path
// (atof32exact): a decimal mantissa below 2²⁴ and a power of ten up to
// 10¹⁰ are both float32s, so the one float32 multiply or divide of the
// two rounds once, to the float32 nearest the decimal — what
// ParseFloat(s, 32) returns. Anything else goes to ParseFloat itself.
// A null is stepped over as a 0 and reported, for decodeClassify to
// refuse. On an error, msg says what is wrong at b[next]. It is a
// function of its arguments alone so that i and flat stay in registers.
func parseRow(b []byte, i int, flat []float32) (next int, _ []float32, null bool, msg string) {
	i++
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i < len(b) && b[i] == ']' {
		return i + 1, flat, false, ""
	}
	for {
		start := i
		neg := false
		if i < len(b) && b[i] == '-' {
			neg = true
			i++
		}
		// mant stops growing once it cannot be exact; big remembers.
		var mant uint64
		big := false
		exp := 0
		var f float32
		switch {
		case i < len(b) && b[i] == '0':
			i++
		case i < len(b) && '1' <= b[i] && b[i] <= '9':
			for ; i < len(b) && isDigit(b[i]); i++ {
				if mant < 1<<24 {
					mant = mant*10 + uint64(b[i]-'0')
				} else {
					big = true
				}
			}
		case i == start && hasPrefix(b, i, "null"):
			null = true
			i += 4
			goto value
		default:
			return i, flat, null, "want a number"
		}
		if i < len(b) && b[i] == '.' {
			i++
			if i >= len(b) || !isDigit(b[i]) {
				return i, flat, null, "want a digit after the decimal point"
			}
			for ; i < len(b) && isDigit(b[i]); i++ {
				if mant < 1<<24 {
					mant = mant*10 + uint64(b[i]-'0')
					exp--
				} else {
					big = true
				}
			}
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			eneg := false
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				eneg = b[i] == '-'
				i++
			}
			if i >= len(b) || !isDigit(b[i]) {
				return i, flat, null, "want a digit in the exponent"
			}
			e := 0
			for ; i < len(b) && isDigit(b[i]); i++ {
				if e < 1000 {
					e = e*10 + int(b[i]-'0')
				}
			}
			if eneg {
				e = -e
			}
			exp += e
		}
		if !big && mant < 1<<24 && -10 <= exp && exp <= 10 {
			f = float32(mant)
			if neg {
				f = -f
			}
			if exp < 0 {
				f /= float32pow10[-exp]
			} else {
				f *= float32pow10[exp]
			}
		} else {
			v, err := strconv.ParseFloat(string(b[start:i]), 32)
			if err != nil {
				return start, flat, null, err.Error()
			}
			f = float32(v)
		}
	value:
		flat = append(flat, f)

		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i >= len(b) {
			return i, flat, null, "the array is not closed"
		}
		switch b[i] {
		case ',':
			i++
			for i < len(b) && isSpace(b[i]) {
				i++
			}
		case ']':
			return i + 1, flat, null, ""
		default:
			return i, flat, null, "want ',' or ']' after a value"
		}
	}
}

// skip validates and steps over the value at d.i — a field the request
// does not have — with depth arrays and objects open around it. It
// keeps its own stack of what is open, one bit each, instead of
// recursing: the body sets the depth, and a goroutine stack must not
// follow it.
func (d *decoder) skip(depth int) error {
	var isObject [maxNesting/64 + 1]uint64
	base := depth
values:
	for {
		// d.i is at the start of a value.
		switch c := d.cur(); c {
		case '[', '{':
			if depth >= maxNesting {
				return d.errorf("exceeded max depth")
			}
			k := depth - base
			if c == '{' {
				isObject[k/64] |= 1 << (k % 64)
			} else {
				isObject[k/64] &^= 1 << (k % 64)
			}
			depth++
			d.i++
			d.space()
			if c == '{' && d.cur() != '}' {
				if err := d.skipKey(); err != nil {
					return err
				}
				continue values
			}
			if c == '[' && d.cur() != ']' {
				continue values
			}
			// Empty: the loop below closes it.
		case '"':
			if err := d.skipString(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
		default:
			if err := d.scanNumber(); err != nil {
				return err
			}
		}
		// After a value: close what it ends, then step to the next one.
		for {
			if depth == base {
				return nil
			}
			d.space()
			k := depth - 1 - base
			inObject := isObject[k/64]&(1<<(k%64)) != 0
			switch c := d.cur(); {
			case c == ',':
				d.i++
				d.space()
				if inObject {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				continue values
			case c == '}' && inObject, c == ']' && !inObject:
				d.i++
				depth--
			default:
				return d.errorf("want ',' or a closing bracket")
			}
		}
	}
}
