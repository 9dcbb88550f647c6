package trace

import (
	"fmt"
	"strconv"
)

// Rows is a JSON array of power rows, [][]float64 underneath: the rows of an
// inline trace in a request body. Its UnmarshalJSON is the repository's one
// decoder for JSON number arrays, written without reflection. It accepts
// exactly the inputs encoding/json accepts for [][]float64 and yields the
// same values: null decodes to nil (a nil Rows or a nil row), a null element
// to 0, and [] to an empty non-nil slice. All rows are cut from one backing
// array.
type Rows [][]float64

// UnmarshalJSON implements json.Unmarshaler.
func (r *Rows) UnmarshalJSON(data []byte) error {
	rows, err := parseRows(data)
	if err != nil {
		return fmt.Errorf("trace: rows: %w", err)
	}
	*r = rows
	return nil
}

// parseRows decodes a JSON array of number arrays; see Rows.
func parseRows(data []byte) (Rows, error) {
	s := numScanner{data: data}
	s.space()
	var rows Rows
	if !s.null() {
		if !s.consume('[') {
			return nil, s.fail("'[' or null")
		}
		var vals []float64
		var ends []int // end of each row in vals; -1 marks a null row
		if !s.closes() {
			for {
				s.space()
				switch {
				case s.null():
					ends = append(ends, -1)
				case s.consume('['):
					var err error
					if vals, err = s.row(vals); err != nil {
						return nil, err
					}
					ends = append(ends, len(vals))
				default:
					return nil, s.fail("a row or null")
				}
				if s.closes() {
					break
				}
				if !s.consume(',') {
					return nil, s.fail("',' or ']'")
				}
			}
		}
		if vals == nil {
			vals = []float64{} // so an empty row is non-nil, as in encoding/json
		}
		rows = make(Rows, len(ends))
		start := 0
		for i, end := range ends {
			if end >= 0 {
				rows[i], start = vals[start:end:end], end
			}
		}
	}
	return rows, s.end()
}

// appendRow parses data, one JSON array of numbers, and appends its values
// to vals. It accepts what encoding/json accepts for []float64; null
// appends nothing.
func appendRow(vals []float64, data []byte) ([]float64, error) {
	s := numScanner{data: data}
	s.space()
	if !s.null() {
		if !s.consume('[') {
			return vals, s.fail("'[' or null")
		}
		var err error
		if vals, err = s.row(vals); err != nil {
			return vals, err
		}
	}
	return vals, s.end()
}

// numScanner is a cursor over JSON text restricted to arrays of numbers and
// nulls. Anything else — strings, objects, booleans — is rejected, as
// encoding/json rejects it when decoding into float64 slices.
type numScanner struct {
	data []byte
	off  int
}

// space skips JSON whitespace.
func (s *numScanner) space() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (s *numScanner) consume(c byte) bool {
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// closes skips whitespace and then a ']' if it is next.
func (s *numScanner) closes() bool {
	s.space()
	return s.consume(']')
}

// null advances past the literal null if it is next.
func (s *numScanner) null() bool {
	if rest := s.data[s.off:]; len(rest) >= 4 && string(rest[:4]) == "null" {
		s.off += 4
		return true
	}
	return false
}

// end requires that only whitespace is left.
func (s *numScanner) end() error {
	s.space()
	if s.off != len(s.data) {
		return s.fail("end of input")
	}
	return nil
}

// row scans the elements of an array whose '[' has been consumed, appending
// numbers to vals and 0 for each null.
func (s *numScanner) row(vals []float64) ([]float64, error) {
	if s.closes() {
		return vals, nil
	}
	for {
		s.space()
		if s.null() {
			vals = append(vals, 0)
		} else {
			v, err := s.number()
			if err != nil {
				return vals, err
			}
			vals = append(vals, v)
		}
		if s.closes() {
			return vals, nil
		}
		if !s.consume(',') {
			return vals, s.fail("',' or ']'")
		}
	}
}

// number scans one number of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it with
// strconv.ParseFloat, as encoding/json does; a value beyond float64's range
// is an error there too.
func (s *numScanner) number() (float64, error) {
	d, start := s.data, s.off
	i := s.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.off = i
		return 0, s.fail("a number or null")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || !isDigit(d[i]) {
			s.off = i
			return 0, s.fail("a digit")
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			s.off = i
			return 0, s.fail("a digit")
		}
		i = digits(d, i)
	}
	v, err := strconv.ParseFloat(string(d[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at byte %d is out of range", d[start:i], start)
	}
	s.off = i
	return v, nil
}

// fail reports what the scanner expected at its cursor.
func (s *numScanner) fail(want string) error {
	if s.off >= len(s.data) {
		return fmt.Errorf("input ends early, want %s", want)
	}
	return fmt.Errorf("unexpected %q at byte %d, want %s", s.data[s.off], s.off, want)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}
