package server

import (
	"bytes"
	"testing"

	"sdr/internal/campaign"
)

// discardSink renders every line as a job's record log would, then drops it.
type discardSink struct{}

func (discardSink) WriteLine(v any) error {
	_, err := campaign.MarshalLine(v)
	return err
}

// FuzzSubmit drives the request path of a job end to end: arbitrary bytes
// are decoded as POST /v1/jobs decodes them, normalized, and the resulting
// spec is run through the campaign stream core as a job worker runs it. The
// property is that nothing panics; a bad request must be an error. To keep
// each input fast the harness skips specs with a size above 64 or more than
// 16 cells, and clamps every cell to at most 2 trials of at most 2000 steps.
// No graph outgrows its size: resolution rejects caterpillar legs ≥ n. The
// seed corpus under testdata/fuzz/FuzzSubmit holds out-of-domain sizes and
// params plus one valid sweep and one valid campaign.
func FuzzSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec, err := req.Normalize()
		if err != nil {
			return
		}
		cells := len(spec.Algorithms) * len(spec.Topologies) * len(spec.Daemons) * len(spec.Sizes) *
			max(1, len(spec.Faults)) * max(1, len(spec.Churns))
		if cells > 16 {
			return
		}
		for _, n := range spec.Sizes {
			if n > 64 {
				return
			}
		}
		if spec.MaxSteps <= 0 || spec.MaxSteps > 2000 {
			spec.MaxSteps = 2000
		}
		if spec.MinTrials <= 0 || spec.MinTrials > 2 {
			spec.MinTrials = 2
		}
		spec.MaxTrials, spec.CITarget = 0, 0
		_, _ = campaign.RunSink(spec, discardSink{}, campaign.Options{Parallel: 1})
	})
}
