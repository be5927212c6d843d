package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire decoder: one pass over a compute request's body, written for the
// three endpoints' fixed schemas. It accepts what encoding/json accepts into
// the same structs — case-folded and duplicate keys (last wins), null for
// any field, unknown fields skipped, escapes and invalid UTF-8 in strings,
// nesting up to 10 000 — and keeps every number of a request in one
// []float64 with the row headers of the nested arrays sliced over it.
// Matmul and conv2d operands must be rectangular, checked as each array
// closes; strconv refuses an out-of-range literal (1e999), so a decoded
// value is finite. DESIGN.md §3d names the one divergence from encoding/json.

// Fields selects how much of a body a Decode call materializes: all of it,
// or what a routing key is made of — inline weights and the model name —
// with the operands (x, input, volume, vector) only checked for JSON syntax.
type Fields int

const (
	AllFields Fields = iota
	RoutingFields
)

const (
	maxDepth          = 10000 // encoding/json's nesting limit, the request object included
	maxHeaderPrealloc = 4096  // row headers reserved up front: brackets alone must not buy 24 B a byte
)

// field is one key of a request schema. Operands are skipped in
// RoutingFields mode.
type field struct {
	name    string
	operand bool
	scan    func() error
}

// DecodeMatMul decodes a /v1/matmul body into req.
func DecodeMatMul(body []byte, req *MatMulRequest, f Fields) error {
	s := scanner{b: body, rect: true}
	return s.object(f,
		field{"m", false, func() (err error) { req.M, err = s.rows2(); return }},
		field{"model", false, func() error { return s.text(&req.Model) }},
		field{"x", true, func() (err error) { req.X, err = s.rows2(); return }},
		field{"timeout_ms", false, func() error { return scanInt(&s, &req.TimeoutMS) }})
}

// DecodeConv2D decodes a /v1/conv2d body into req.
func DecodeConv2D(body []byte, req *Conv2DRequest, f Fields) error {
	s := scanner{b: body, rect: true}
	return s.object(f,
		field{"input", true, func() (err error) { req.Input, err = s.rows3(); return }},
		field{"kernels", false, func() (err error) { req.Kernels, err = s.rows4(); return }},
		field{"model", false, func() error { return s.text(&req.Model) }},
		field{"stride", false, func() error { return scanInt(&s, &req.Stride) }},
		field{"pad", false, func() error { return scanInt(&s, &req.Pad) }},
		field{"timeout_ms", false, func() error { return scanInt(&s, &req.TimeoutMS) }})
}

// DecodeInfer decodes a /v1/infer body into req. Nothing has to be
// rectangular here: the model's checkInput holds the field it reads to an
// exact shape and ignores the other, as it always did.
func DecodeInfer(body []byte, req *InferRequest, f Fields) error {
	s := scanner{b: body}
	return s.object(f,
		field{"model", false, func() error { return s.text(&req.Model) }},
		field{"volume", true, func() (err error) { req.Volume, err = s.rows3(); return }},
		field{"vector", true, func() (err error) { req.Vector, err = s.row(); return }},
		field{"timeout_ms", false, func() error { return scanInt(&s, &req.TimeoutMS) }})
}

// bodyPool recycles request-body buffers up to maxPooledBody. Only bytes
// are pooled: a body is dead once its scan returns, while decoded floats
// stay referenced by a job that can outlive its handler (await answers 504
// on a deadline with the job still queued or running).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// ReadBody reads r's body into buf behind http.MaxBytesReader. The declared
// Content-Length reserves the buffer first, up to maxPooledBody — one growth
// for an ordinary request, and nothing a client can hold large by declaring
// much and sending little; past that the buffer grows with the bytes that
// arrive. Exceeding limit returns an *http.MaxBytesError.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) error {
	if n := min(r.ContentLength, limit, maxPooledBody); n > 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return err
}

type scanner struct {
	b []byte
	i int

	// vals holds every decoded number in body order, r1..r3 the row headers
	// of each nesting level likewise; a decoded array is the slice of its
	// pool that its elements filled.
	vals []float64
	r1   [][]float64
	r2   [][][]float64
	r3   [][][][]float64

	// rect demands rectangular operands: dims[l] is the length every array
	// at nesting level l of the current field must have, -1 until the first
	// one closes. open counts the arrays of the field that have not.
	rect bool
	dims [5]int
	open int
}

func (s *scanner) syntax() error {
	if s.i >= len(s.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", s.b[s.i], s.i)
}

func (s *scanner) want(what string) error {
	return fmt.Errorf("want %s at offset %d", what, s.i)
}

// ws skips whitespace and returns the next byte, 0 at the end of the body
// (a literal NUL is as invalid as the end wherever ws is consulted).
func (s *scanner) ws() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// lit consumes word, which must be spelled out at s.i.
func (s *scanner) lit(word string) error {
	if !bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		return s.syntax()
	}
	s.i += len(word)
	return nil
}

// object scans the request object, matching each key (escapes decoded)
// against the schema as encoding/json matches struct fields — exactly, or
// under Unicode simple case folding — and skipping the ones it does not
// name. A top-level null leaves the request untouched, as it does there.
func (s *scanner) object(f Fields, schema ...field) error {
	switch s.ws() {
	case 'n':
		if err := s.lit("null"); err != nil {
			return err
		}
	case '{':
		s.i++
		for more := s.ws() != '}'; more; {
			key, err := s.key()
			if err != nil {
				return err
			}
			scan := s.skip
			for _, fd := range schema {
				if bytes.EqualFold(key, []byte(fd.name)) && !(fd.operand && f == RoutingFields) {
					scan = fd.scan
				}
			}
			s.dims = [5]int{-1, -1, -1, -1, -1}
			if err := scan(); err != nil {
				return err
			}
			switch s.ws() {
			case ',':
				s.i++
			case '}':
				more = false
			default:
				return s.syntax()
			}
		}
		s.i++
	default:
		if s.i >= len(s.b) {
			return errors.New("empty request body")
		}
		return s.want("a request object")
	}
	if s.ws(); s.i < len(s.b) {
		return errors.New("trailing data after request object")
	}
	return nil
}

// key scans an object key and the colon after it.
func (s *scanner) key() ([]byte, error) {
	if s.ws() != '"' {
		return nil, s.syntax()
	}
	key, err := s.str()
	if err == nil && s.ws() != ':' {
		err = s.syntax()
	}
	s.i++
	return key, err
}

// str scans the string whose opening quote is at s.i and returns its value
// as encoding/json would: escapes decoded, invalid UTF-8 and unpaired
// surrogates replaced by U+FFFD. A string with neither is returned as it
// lies in the body, without a copy.
func (s *scanner) str() ([]byte, error) {
	start := s.i + 1
	for s.i = start; s.i < len(s.b) && s.b[s.i] != '"'; s.i++ {
		if s.b[s.i] < ' ' {
			return nil, s.syntax()
		} else if s.b[s.i] == '\\' {
			s.i++ // whatever is escaped, it does not end the string
		}
	}
	if s.i >= len(s.b) {
		return nil, s.syntax()
	}
	raw := s.b[start:s.i]
	s.i++
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw, nil
	}
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		r, n := utf8.DecodeRune(raw[i:])
		if raw[i] == '\\' {
			if r, n = unescape(raw[i:]); n == 0 {
				s.i = start + i
				return nil, s.syntax()
			}
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out, nil
}

// unescape decodes the escape sequence b starts with and returns the rune
// and the bytes it spans, 0 if malformed. A surrogate half that the next
// escape does not complete decodes to U+FFFD on its own.
func unescape(b []byte) (rune, int) {
	const from, to = `"\/bfnrt`, "\"\\/\b\f\n\r\t"
	if k := strings.IndexByte(from, b[1]); k >= 0 { // str never passes a lone backslash
		return rune(to[k]), 2
	}
	r := hex4(b)
	if r < 0 {
		return 0, 0
	}
	if utf16.IsSurrogate(r) {
		if pair := utf16.DecodeRune(r, hex4(b[6:])); pair != utf8.RuneError {
			return pair, 12
		}
		r = utf8.RuneError
	}
	return r, 6
}

// hex4 reads the \uXXXX escape b starts with, or returns -1 if it does not.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// number scans the JSON number at s.i and returns its text. The grammar is
// checked here because strconv accepts more (hex, "inf", a leading '+').
func (s *scanner) number() ([]byte, error) {
	start := s.i
	s.eat('-', '-')
	if !s.eat('0', '0') && !s.digits() {
		if s.i == start {
			return nil, s.want("a number")
		}
		return nil, s.syntax()
	}
	if s.eat('.', '.') && !s.digits() {
		return nil, s.syntax()
	}
	if s.eat('e', 'E') {
		if s.eat('+', '-'); !s.digits() {
			return nil, s.syntax()
		}
	}
	return s.b[start:s.i], nil
}

// eat consumes the next byte if it is a or b.
func (s *scanner) eat(a, b byte) bool {
	ok := s.i < len(s.b) && (s.b[s.i] == a || s.b[s.i] == b)
	if ok {
		s.i++
	}
	return ok
}

// digits consumes a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	from := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > from
}

// float scans one array element: a number, or null, which reads as 0.
func (s *scanner) float() (float64, error) {
	if s.ws() == 'n' {
		return 0, s.lit("null")
	}
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	// The conversion does not allocate: tok is shorter than the 32 bytes
	// the compiler keeps on the stack for a string that does not escape.
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		err = fmt.Errorf("number %s at offset %d is out of range", tok, s.i-len(tok))
	}
	return v, err
}

// scanInt scans an integer field; null leaves dst as it is.
func scanInt[T int | int64](s *scanner, dst *T) error {
	if s.ws() == 'n' {
		return s.lit("null")
	}
	tok, err := s.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(T(v)) != v {
		return fmt.Errorf("number %s at offset %d is not an integer in range", tok, s.i-len(tok))
	}
	*dst = T(v)
	return nil
}

// text scans a string field; null leaves dst as it is.
func (s *scanner) text(dst *string) error {
	switch s.ws() {
	case 'n':
		return s.lit("null")
	case '"':
		b, err := s.str()
		if err == nil {
			*dst = string(b)
		}
		return err
	}
	return s.want("a string")
}

// array scans a JSON array of whatever elem scans: nil for null, empty but
// non-nil for []. The elements are appended to *pool and the array is the
// part of the pool they fill. A pool is sized once, from the sep bytes left
// in the body: two numbers are always a comma apart and every row opens
// with a bracket, so a pool does not grow and earlier arrays keep pointing
// into it. level is the array's nesting level, 1 for a row. A null field is
// left to the endpoint's checks; a null element is an array of none to the
// shape check, as it is to the len() of whoever walks the rows.
func array[T any](s *scanner, pool *[]T, level int, sep byte, elem func(*scanner) (T, error)) ([]T, error) {
	var out []T
	switch s.ws() {
	case 'n':
		if err := s.lit("null"); err != nil || s.open == 0 {
			return nil, err
		}
	case '[':
		if *pool == nil {
			n := bytes.Count(s.b[s.i:], []byte{sep}) + 1
			if sep != ',' {
				n = min(n, maxHeaderPrealloc)
			}
			*pool = make([]T, 0, n)
		}
		start := len(*pool)
		s.i++
		s.open++
		for more := s.ws() != ']'; more; {
			v, err := elem(s)
			if err != nil {
				return nil, err
			}
			*pool = append(*pool, v)
			switch s.ws() {
			case ',':
				s.i++
			case ']':
				more = false
			default:
				return nil, s.syntax()
			}
		}
		s.i++
		s.open--
		out = (*pool)[start:len(*pool):len(*pool)]
	default:
		return nil, s.want("an array")
	}
	if d := &s.dims[level]; s.rect && *d < 0 {
		*d = len(out)
	} else if s.rect && *d != len(out) {
		return nil, fmt.Errorf("ragged array ending at offset %d: %d elements at nesting level %d, where the first array has %d", s.i, len(out), level, *d)
	}
	return out, nil
}

func (s *scanner) row() ([]float64, error) { return array(s, &s.vals, 1, ',', (*scanner).float) }

func (s *scanner) rows2() ([][]float64, error) { return array(s, &s.r1, 2, '[', (*scanner).row) }

func (s *scanner) rows3() ([][][]float64, error) { return array(s, &s.r2, 3, '[', (*scanner).rows2) }

func (s *scanner) rows4() ([][][][]float64, error) { return array(s, &s.r3, 4, '[', (*scanner).rows3) }

// skip checks the value at s.i for JSON syntax and discards it: an unknown
// field, or an operand in RoutingFields mode. The open containers are kept
// on a stack of its own, so a megabyte of '[' costs maxDepth bytes and a
// 400, not goroutine stack. '}' and ']' are their opening byte plus two.
func (s *scanner) skip() error {
	var buf [16]byte
	open := buf[:0]
	for {
		var err error
		switch c := s.ws(); c {
		case '{', '[':
			if len(open)+2 > maxDepth {
				return fmt.Errorf("exceeded max depth at offset %d", s.i)
			}
			open = append(open, c)
			s.i++
			if s.ws() != c+2 {
				if c == '{' {
					_, err = s.key()
				}
				if err != nil {
					return err
				}
				continue // on to the container's first value
			}
		case '"':
			_, err = s.str()
		case 't':
			err = s.lit("true")
		case 'f':
			err = s.lit("false")
		case 'n':
			err = s.lit("null")
		default:
			if _, err = s.number(); err != nil {
				err = s.syntax()
			}
		}
		// A value has ended: close every container that ends with it, then
		// move on to the next value of the innermost one still open.
		for err == nil {
			if len(open) == 0 {
				return nil
			}
			top, c := open[len(open)-1], s.ws()
			if c == top+2 {
				open = open[:len(open)-1]
			} else if c != ',' {
				return s.syntax()
			}
			s.i++
			if c == ',' {
				if top == '{' {
					_, err = s.key()
				}
				break
			}
		}
		if err != nil {
			return err
		}
	}
}
