package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// RowReader streams power rows one at a time. It is the contract between
// trace sources (files, network bodies, in-memory traces) and the
// trace-driven simulation layer: a transient replay can begin before the
// full trace exists, and memory stays O(one row) for streamed sources.
//
// Names defines the column order, Interval the per-row duration in seconds.
// Next fills dst (length len(Names)) with the next power row and returns
// io.EOF when the trace is exhausted. Implementations validate rows: every
// power is finite and non-negative.
type RowReader interface {
	Names() []string
	Interval() float64
	Next(dst []float64) error
}

// Reader returns a RowReader cursor over the in-memory trace. Each call
// returns an independent cursor positioned at the first row. Replaying a
// trace through its Reader is bit-identical to replaying the same rows
// through a streaming Decoder: both feed the same values at the same step
// size into the same integrator path.
func (p *PowerTrace) Reader() RowReader {
	return &traceCursor{p: p}
}

type traceCursor struct {
	p *PowerTrace
	i int
}

func (c *traceCursor) Names() []string   { return c.p.Names }
func (c *traceCursor) Interval() float64 { return c.p.Interval }
func (c *traceCursor) Next(dst []float64) error {
	if c.i >= len(c.p.Rows) {
		return io.EOF
	}
	if len(dst) != len(c.p.Names) {
		return fmt.Errorf("trace: destination has %d slots, want %d", len(dst), len(c.p.Names))
	}
	copy(dst, c.p.Rows[c.i])
	c.i++
	return nil
}

// Format selects the wire format of a streamed trace.
type Format int

const (
	// FormatAuto sniffs the format from the first data line: '{' starts
	// NDJSON, a comma in the header means CSV, anything else is ptrace.
	FormatAuto Format = iota
	// FormatPTrace is the HotSpot ".ptrace" format: optional "# interval
	// <v> s" comment, a whitespace-separated header of block names, then
	// one whitespace-separated power row per interval.
	FormatPTrace
	// FormatCSV is the same layout with comma-separated fields.
	FormatCSV
	// FormatNDJSON is newline-delimited JSON: a header object
	// {"names":["A","B"],"interval":1e-3} followed by one JSON array of
	// powers per line.
	FormatNDJSON
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatPTrace:
		return "ptrace"
	case FormatCSV:
		return "csv"
	case FormatNDJSON:
		return "ndjson"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// DecoderOptions configure a streaming Decoder.
type DecoderOptions struct {
	// Format selects the wire format (default FormatAuto).
	Format Format
	// DefaultInterval is used when the stream does not carry an interval
	// (no "# interval" comment in ptrace/CSV, no "interval" field in the
	// NDJSON header).
	DefaultInterval float64
	// MaxColumns bounds the header width (default 4096). A streamed source
	// is untrusted input; the bound keeps a hostile header from allocating
	// per-row buffers of arbitrary size.
	MaxColumns int
}

// ndjsonHeader is the first line of an NDJSON trace stream.
type ndjsonHeader struct {
	Names    []string `json:"names"`
	Interval float64  `json:"interval"`
}

// Decoder incrementally decodes a power trace from a stream. It reads the
// header eagerly (so Names and Interval are available immediately) and then
// yields one validated row per Next call. Memory use is O(one row)
// regardless of trace length.
type Decoder struct {
	names    []string
	interval float64
	format   Format
	sc       *bufio.Scanner
	line     int
	rows     int
	row      []float64 // NDJSON scratch row
}

// maxLineBytes bounds a single input line (matches the legacy Read limit).
const maxLineBytes = 1 << 20

// NewDecoder reads the stream header and returns a row decoder. It fails on
// an empty stream, a malformed header, duplicate or empty column names, or
// a missing interval.
func NewDecoder(r io.Reader, opt DecoderOptions) (*Decoder, error) {
	maxCols := opt.MaxColumns
	if maxCols <= 0 {
		maxCols = 4096
	}
	d := &Decoder{
		format:   opt.Format,
		interval: opt.DefaultInterval,
		sc:       bufio.NewScanner(r),
	}
	d.sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for {
		text, err := d.nextLine()
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty stream (no header)")
		}
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(text, "#") {
			var v float64
			if n, _ := fmt.Sscanf(text, "# interval %g s", &v); n == 1 && isFinitePositive(v) {
				d.interval = v
			}
			continue
		}
		if d.format == FormatAuto {
			d.format = sniffFormat(text)
		}
		var names []string
		switch d.format {
		case FormatNDJSON:
			var hdr ndjsonHeader
			if err := json.Unmarshal([]byte(text), &hdr); err != nil {
				return nil, fmt.Errorf("trace: line %d: NDJSON header: %v", d.line, err)
			}
			names = hdr.Names
			if hdr.Interval != 0 {
				if !isFinitePositive(hdr.Interval) {
					return nil, fmt.Errorf("trace: line %d: invalid interval %g", d.line, hdr.Interval)
				}
				d.interval = hdr.Interval
			}
		case FormatCSV:
			names = splitCSV(text)
		default:
			names = strings.Fields(text)
		}
		if len(names) > maxCols {
			return nil, fmt.Errorf("trace: header has %d columns, limit %d", len(names), maxCols)
		}
		if err := checkNames(names); err != nil {
			return nil, err
		}
		if !isFinitePositive(d.interval) {
			return nil, fmt.Errorf("trace: no interval specified (and no usable default)")
		}
		d.names = names
		return d, nil
	}
}

// Names returns the column (block) names.
func (d *Decoder) Names() []string { return d.names }

// Interval returns the per-row duration in seconds.
func (d *Decoder) Interval() float64 { return d.interval }

// Rows returns the number of rows decoded so far.
func (d *Decoder) Rows() int { return d.rows }

// Next decodes the next power row into dst (length must equal len(Names)).
// It returns io.EOF at end of stream, and a descriptive error for malformed
// rows, non-finite powers (NaN/Inf), or negative powers.
func (d *Decoder) Next(dst []float64) error {
	if len(dst) != len(d.names) {
		return fmt.Errorf("trace: destination has %d slots, want %d", len(dst), len(d.names))
	}
	text, err := d.nextLine()
	if err != nil {
		return err
	}
	// Comment lines between rows are skipped (the writer only emits one up
	// front, but hand-edited traces interleave them).
	for strings.HasPrefix(text, "#") {
		if text, err = d.nextLine(); err != nil {
			return err
		}
	}
	switch d.format {
	case FormatNDJSON:
		if d.row, err = appendRow(d.row[:0], []byte(text)); err != nil {
			return fmt.Errorf("trace: line %d: %v", d.line, err)
		}
		if len(d.row) != len(d.names) {
			return fmt.Errorf("trace: line %d: row has %d values, want %d", d.line, len(d.row), len(d.names))
		}
		copy(dst, d.row)
	default:
		var fields []string
		if d.format == FormatCSV {
			fields = splitCSV(text)
		} else {
			fields = strings.Fields(text)
		}
		if len(fields) != len(d.names) {
			return fmt.Errorf("trace: line %d: row has %d values, want %d", d.line, len(fields), len(d.names))
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: %v", d.line, err)
			}
			dst[i] = v
		}
	}
	for i, v := range dst {
		if err := checkPower(v, i); err != nil {
			return fmt.Errorf("trace: line %d: %v", d.line, err)
		}
	}
	d.rows++
	return nil
}

// nextLine returns the next non-blank line, or io.EOF.
func (d *Decoder) nextLine() (string, error) {
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" {
			continue
		}
		return text, nil
	}
	if err := d.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// sniffFormat guesses the wire format from the first data line.
func sniffFormat(text string) Format {
	switch {
	case strings.HasPrefix(text, "{") || strings.HasPrefix(text, "["):
		return FormatNDJSON
	case strings.Contains(text, ","):
		return FormatCSV
	default:
		return FormatPTrace
	}
}

// splitCSV splits a comma-separated line and trims surrounding space from
// each field. (Power traces never contain quoted fields, so a full CSV
// parser would only add failure modes.)
func splitCSV(text string) []string {
	parts := strings.Split(text, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// checkNames validates header names: non-empty, no duplicates.
func checkNames(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("trace: no block names")
	}
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if n == "" {
			return fmt.Errorf("trace: empty block name at column %d", i)
		}
		if seen[n] {
			return fmt.Errorf("trace: duplicate block name %q", n)
		}
		seen[n] = true
	}
	return nil
}

// checkPower validates one power value: finite and non-negative.
func checkPower(v float64, col int) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite power %g in column %d", v, col)
	}
	if v < 0 {
		return fmt.Errorf("negative power %g in column %d", v, col)
	}
	return nil
}

func isFinitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// DecodeAll drains a stream into an in-memory PowerTrace. It is the
// loaded-trace counterpart of streaming a Decoder row by row; replaying
// either through the simulation layer produces bit-identical results.
func DecodeAll(r io.Reader, opt DecoderOptions) (*PowerTrace, error) {
	d, err := NewDecoder(r, opt)
	if err != nil {
		return nil, err
	}
	tr, err := New(d.Names(), d.Interval())
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(d.Names()))
	for {
		err := d.Next(row)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	if len(tr.Rows) == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	return tr, nil
}
