// Step-load generation. A step load is the canonical elasticity probe:
// consecutive open-loop phases at increasing (or decreasing) arrival
// rates, each phase long enough for the platform's control loops — the
// engine control loop growing the compute pool, the admission windows
// widening — to react. RunStepLoad chains RunOpenLoop phases back to
// back against one frontend and reports each phase separately, so a
// harness can correlate per-phase queueing delay with the pool-size and
// EngineResizes gauges it reads from /stats between phases.
package loadgen

import (
	"errors"
	"fmt"
	"strings"
)

// Step is one phase of a step-load run: Requests arrivals offered at
// Rate per second.
type Step struct {
	Rate     float64
	Requests int
}

// RunStepLoad drives the configured open loop through the given steps
// in order, overriding cfg.Rate and cfg.Requests per phase, and returns
// one OpenReport per step. cfg.Payload (when set) sees per-phase
// request sequence numbers. The first failing phase aborts the run,
// returning the reports of completed phases alongside the error.
func RunStepLoad(cfg OpenConfig, steps []Step) ([]OpenReport, error) {
	if len(steps) == 0 {
		return nil, errors.New("loadgen: step load requires at least one step")
	}
	reports := make([]OpenReport, 0, len(steps))
	for i, st := range steps {
		phase := cfg
		phase.Rate = st.Rate
		phase.Requests = st.Requests
		rep, err := RunOpenLoop(phase)
		if err != nil {
			return reports, fmt.Errorf("loadgen: step %d: %w", i, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// StepSummary renders per-phase one-line summaries for harness logs.
func StepSummary(reports []OpenReport) string {
	lines := make([]string, len(reports))
	for i, r := range reports {
		lines[i] = fmt.Sprintf("step %d: %s", i, r)
	}
	return strings.Join(lines, "\n")
}
