package experiments

// Athena cost/latency model for Figure 9. AWS Athena bills per byte
// scanned ($5/TB with a 10 MB minimum per query) and runs on shared
// warehouse infrastructure with a per-query startup overhead; Dandelion
// runs on a rented EC2 VM billed per second.

// AthenaModel captures the Query-as-a-Service pricing and performance
// assumptions. Defaults follow public AWS pricing and the latency range
// in Figure 9.
type AthenaModel struct {
	// USDPerTB is the bytes-scanned price ($5/TB).
	USDPerTB float64
	// MinScanBytes is the billing floor (10 MB).
	MinScanBytes int64
	// StartupMS is fixed per-query overhead (planning, scheduling on
	// the shared warehouse), queueing excluded as in the paper.
	StartupMS float64
	// ScanMBPerSec is effective scan throughput.
	ScanMBPerSec float64
}

// DefaultAthena returns the published-pricing model.
func DefaultAthena() AthenaModel {
	return AthenaModel{
		USDPerTB:     5.0,
		MinScanBytes: 10 << 20,
		StartupMS:    1600,
		ScanMBPerSec: 350,
	}
}

// CostCents reports the query cost in US cents for the scanned bytes.
func (m AthenaModel) CostCents(scanBytes int64) float64 {
	if scanBytes < m.MinScanBytes {
		scanBytes = m.MinScanBytes
	}
	return float64(scanBytes) / 1e12 * m.USDPerTB * 100
}

// LatencyMS reports modeled execution latency for the scanned bytes.
func (m AthenaModel) LatencyMS(scanBytes int64) float64 {
	return m.StartupMS + float64(scanBytes)/(m.ScanMBPerSec*1e6)*1000
}

// EC2Model prices Dandelion's execution: a VM billed per second.
type EC2Model struct {
	// USDPerHour for the instance (m7a.8xlarge ≈ $1.85/h on-demand).
	USDPerHour float64
}

// DefaultEC2 returns the m7a.8xlarge pricing used in §7.7.
func DefaultEC2() EC2Model { return EC2Model{USDPerHour: 1.85} }

// CostCents reports the cost of occupying the VM for latencyMS.
func (m EC2Model) CostCents(latencyMS float64) float64 {
	return latencyMS / 1000 / 3600 * m.USDPerHour * 100
}
