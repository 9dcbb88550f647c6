package scenario

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// replayDTMSpec is the shape of the end-to-end benchmark's scenario request:
// a 4-cell DTM grid (air and oil × two triggers) over ten 1 ms steps of a
// live gcc phase co-simulated at 2 MHz, starting from the nominal steady
// state. The lower trigger engages on both packages, the higher on neither.
const replayDTMSpec = `{"name":"rt-dtm","interval":1e-3,"emergency_c":85,"initial_steady":true,"seed":7,"power":{"clock_hz":2e6},` +
	`"phases":[{"name":"gcc","duration":0.01,"workload":"gcc"}],` +
	`"packages":[{"label":"air","kind":"air-sink","rconv":1.0},{"label":"oil","kind":"oil-silicon","rconv":1.0}],` +
	`"policies":{"trigger_c":[58,83],"engage_s":[3e-3],"perf_factor":[0.5]}}`

// loopingSpec wraps a gcc, pulse, art schedule twice and stops partway into
// its third pass, so workload phases are re-entered mid-run.
const loopingSpec = `{"name":"loop","interval":1e-3,"duration":0.023,"emergency_c":85,"initial_steady":true,"seed":3,"power":{"clock_hz":2e6},` +
	`"phases":[{"name":"gcc","duration":0.004,"workload":"gcc"},` +
	`{"name":"burst","duration":0.003,"pulse":{"block":"IntReg","peak_w":3,"on_s":0.001,"off_s":0.001}},` +
	`{"name":"art","duration":0.003,"workload":"art"}],` +
	`"packages":[{"label":"oil","kind":"oil-silicon","rconv":1.0}],` +
	`"policies":{"trigger_c":[82],"engage_s":[2e-3],"perf_factor":[0.5]}}`

func compileSpec(tb testing.TB, src string) *Compiled {
	tb.Helper()
	spec, err := ParseSpec(strings.NewReader(src))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Compile(spec, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestReplayDTMGolden pins the closed-loop co-simulation bit for bit. The
// expected lines were recorded before the CPU's cache storage was flattened
// and before workload phases built their CPU lazily; %v prints each float at
// its shortest round-trip form, so equal text means equal bits.
func TestReplayDTMGolden(t *testing.T) {
	cases := []struct {
		name, spec string
		want       []string
	}{
		{"replay-dtm", replayDTMSpec, []string{
			"air {TriggerC:58 EngageDuration:0.003 SampleInterval:0.001 PerfFactor:0.5 Actuator:fetch-gate} {DurationS:0.01 EngagedS:0.010000000000000002 DutyCycle:1.0000000000000002 Engagements:1 PerfPenalty:0.4972931167826759 ViolationS:0 CoveredViolationS:0 ViolationCoverage:1 PeakC:59.85501196409297 ObservedPeakC:59.85501196409297 InitialHotC:59.85501196409297 FinalHotC:59.78760316971852 Committed:650}",
			"air {TriggerC:83 EngageDuration:0.003 SampleInterval:0.001 PerfFactor:0.5 Actuator:fetch-gate} {DurationS:0.01 EngagedS:0 DutyCycle:0 Engagements:0 PerfPenalty:0 ViolationS:0 CoveredViolationS:0 ViolationCoverage:1 PeakC:59.85501196409297 ObservedPeakC:59.85501196409297 InitialHotC:59.85501196409297 FinalHotC:59.78762114527342 Committed:1293}",
			"oil {TriggerC:58 EngageDuration:0.003 SampleInterval:0.001 PerfFactor:0.5 Actuator:fetch-gate} {DurationS:0.01 EngagedS:0.010000000000000002 DutyCycle:1.0000000000000002 Engagements:1 PerfPenalty:0.4972931167826759 ViolationS:0 CoveredViolationS:0 ViolationCoverage:1 PeakC:82.63998739684155 ObservedPeakC:82.63998739684155 InitialHotC:82.63998739684155 FinalHotC:82.62494030501637 Committed:650}",
			"oil {TriggerC:83 EngageDuration:0.003 SampleInterval:0.001 PerfFactor:0.5 Actuator:fetch-gate} {DurationS:0.01 EngagedS:0 DutyCycle:0 Engagements:0 PerfPenalty:0 ViolationS:0 CoveredViolationS:0 ViolationCoverage:1 PeakC:82.63998739684155 ObservedPeakC:82.63998739684155 InitialHotC:82.63998739684155 FinalHotC:82.62516837121876 Committed:1293}",
		}},
		{"looping", loopingSpec, []string{
			"oil {TriggerC:82 EngageDuration:0.002 SampleInterval:0.001 PerfFactor:0.5 Actuator:fetch-gate} {DurationS:0.023 EngagedS:0.022000000000000013 DutyCycle:0.9565217391304354 Engagements:2 PerfPenalty:0.5368384374153083 ViolationS:0 CoveredViolationS:0 ViolationCoverage:1 PeakC:84.40253978771472 ObservedPeakC:84.40253978771472 InitialHotC:84.40253978771472 FinalHotC:81.7536824694451 Committed:945}",
		}},
	}
	for _, tc := range cases {
		res := compileSpec(t, tc.spec).RunGrid(context.Background(), 1, nil)
		if len(res) != len(tc.want) {
			t.Fatalf("%s: %d cells, want %d", tc.name, len(res), len(tc.want))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s cell %d: %v", tc.name, i, r.Err)
			}
			got := fmt.Sprintf("%s %+v %+v", r.Cell.Package, r.Cell.Policy, r.Metrics)
			if got != tc.want[i] {
				t.Errorf("%s cell %d:\n got  %s\n want %s", tc.name, i, got, tc.want[i])
			}
		}
	}
}

func BenchmarkScenarioGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compileSpec(b, replayDTMSpec).RunGrid(context.Background(), 1, nil)
	}
}
