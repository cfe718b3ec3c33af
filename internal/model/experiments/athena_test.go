package experiments

import "testing"

func TestAthenaModel(t *testing.T) {
	m := DefaultAthena()
	// 700 MB at $5/TB = 0.35¢, matching Figure 9's ~0.32-0.33¢ bars.
	c := m.CostCents(700 << 20)
	if c < 0.3 || c < 0.2 || c > 0.45 {
		t.Fatalf("Athena cost for 700MB = %.3f¢, want ~0.35", c)
	}
	// Billing floor.
	if m.CostCents(1) != m.CostCents(10<<20) {
		t.Fatal("10MB minimum not applied")
	}
	// Latency: startup dominates small scans.
	if m.LatencyMS(1<<20) < m.StartupMS {
		t.Fatal("latency below startup")
	}
	lat := m.LatencyMS(700 << 20)
	if lat < 2000 || lat > 6000 {
		t.Fatalf("Athena 700MB latency = %.0f ms, want 2-6 s (Figure 9 range)", lat)
	}
}

func TestEC2Model(t *testing.T) {
	m := DefaultEC2()
	// §7.7: Dandelion ~2s query on m7a.8xlarge ≈ 0.08-0.12¢.
	c := m.CostCents(2000)
	if c < 0.05 || c > 0.2 {
		t.Fatalf("EC2 cost for 2s = %.3f¢", c)
	}
}

func TestFig9Shape(t *testing.T) {
	// Dandelion must be both faster (≈40%) and cheaper (≈67%) than
	// Athena for short queries on 700 MB.
	athena := DefaultAthena()
	ec2 := DefaultEC2()
	scan := int64(700 << 20)
	athenaLat := athena.LatencyMS(scan)
	dandelionLat := athenaLat * 0.6 // paper's measured 40% improvement
	if ec2.CostCents(dandelionLat) > athena.CostCents(scan)*0.5 {
		t.Fatalf("Dandelion cost %.3f¢ not well below Athena %.3f¢",
			ec2.CostCents(dandelionLat), athena.CostCents(scan))
	}
}
