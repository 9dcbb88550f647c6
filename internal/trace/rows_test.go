package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// sameRows reports whether got holds exactly want's rows: the same nil-ness
// at both levels, the same lengths and the same float bits.
func sameRows(got, want [][]float64) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || !sameBits(got[i], want[i]) {
			return false
		}
	}
	return true
}

func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return false
		}
	}
	return true
}

// rowsCorpus seeds both the table test and the fuzzer: accepted inputs
// (whitespace, null rows and elements, -0, exponents) and the edge cases
// encoding/json rejects (out-of-range numbers, leading zeros, bare dots,
// NaN, trailing commas, wrong element types, trailing data).
var rowsCorpus = []string{
	`[[1,2],[3,4]]`,
	" \t\r\n[ [ 1 , 2 ] ,\n[3,4] ] \n",
	`[]`, `[[]]`, `[[],[1]]`, `null`, ` null `, `[null]`, `[[null]]`, `[null,[1,null,2]]`,
	`[[-0]]`, `[[0.5e-3,1E+2,-12.25e0]]`, `[[1e-400]]`, `[[1.7976931348623157e308]]`,
	`[[1e400]]`, `[[-1e400]]`, `[[01]]`, `[[1.]]`, `[[.5]]`, `[[NaN]]`, `[[Infinity]]`, `[[+1]]`,
	`[[1,]]`, `[[1],]`, `[,]`, `[[,1]]`, `[[1 2]]`, `[[1][2]]`, `[[1]]x`, `[[1]] [[2]]`,
	`[["1"]]`, `[[true]]`, `[{"a":1}]`, `[[[1]]]`, `[1]`, `{}`, `1`, `"rows"`, ``, ` `,
	`[[1e]]`, `[[1e+]]`, `[[-]]`, `[[0x10]]`, `[[nul]]`, `[[nullnull]]`, `[[1]`, `[[1`, `nullx`,
	"[[1]\f]", "[[1 ]]",
}

func TestRowsMatchesEncodingJSON(t *testing.T) {
	for _, in := range rowsCorpus {
		checkRowsAgainstJSON(t, []byte(in))
	}
}

// checkRowsAgainstJSON holds Rows.UnmarshalJSON and appendRow to
// encoding/json's verdict and values on one input.
func checkRowsAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var want [][]float64
	wantErr := json.Unmarshal(data, &want)
	var got Rows
	gotErr := got.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: Rows error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !sameRows(got, want) {
		t.Fatalf("%q: Rows %v, encoding/json %v", data, got, want)
	}
	// Through encoding/json, as the service and scenario decoders use it.
	var field struct{ Rows Rows }
	fieldErr := json.Unmarshal(append(append([]byte(`{"Rows":`), data...), '}'), &field)
	if wantErr == nil && (fieldErr != nil || !sameRows(field.Rows, want)) {
		t.Fatalf("%q: as a field: %v, %v", data, field.Rows, fieldErr)
	}

	var wantRow []float64
	wantRowErr := json.Unmarshal(data, &wantRow)
	gotRow, gotRowErr := appendRow(nil, data)
	if (gotRowErr == nil) != (wantRowErr == nil) {
		t.Fatalf("%q: appendRow error %v, encoding/json error %v", data, gotRowErr, wantRowErr)
	}
	if wantRowErr == nil && !sameBits(gotRow, wantRow) {
		t.Fatalf("%q: appendRow %v, encoding/json %v", data, gotRow, wantRow)
	}
}

// FuzzRowsMatchesEncodingJSON: for any bytes, Rows accepts exactly when
// encoding/json accepts them as [][]float64 (and appendRow exactly when it
// accepts []float64), with bit-identical values.
func FuzzRowsMatchesEncodingJSON(f *testing.F) {
	for _, in := range rowsCorpus {
		f.Add([]byte(in))
	}
	f.Fuzz(checkRowsAgainstJSON)
}

func TestRowsShareOneBackingArray(t *testing.T) {
	var r Rows
	if err := r.UnmarshalJSON([]byte(`[[1,2],null,[3],[]]`)); err != nil {
		t.Fatal(err)
	}
	if len(r) != 4 || r[1] != nil || r[3] == nil || len(r[3]) != 0 {
		t.Fatalf("rows %#v", r)
	}
	// Rows are capped at their own length: growing one cannot overwrite the
	// next.
	r[0] = append(r[0], 9)
	if r[2][0] != 3 {
		t.Fatalf("append to row 0 overwrote row 2: %v", r)
	}
}

func TestRowsErrorsNameTheOffset(t *testing.T) {
	var r Rows
	err := r.UnmarshalJSON([]byte(`[[1,2],[3,x]]`))
	if err == nil || !strings.Contains(err.Error(), "byte 10") {
		t.Fatalf("error %v, want one naming byte 10", err)
	}
}

func BenchmarkRowsUnmarshal(b *testing.B) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("[1.25,0.5,3.75,12.5,0.01,2.5,7.25,0.75,1.5,4.5,6.25,0.25,8.5,9.75,3.5,2.25]")
	}
	sb.WriteByte(']')
	data := []byte(sb.String())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r Rows
		if err := r.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
