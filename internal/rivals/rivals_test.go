package rivals

import (
	"testing"

	"reis/internal/ssd"
)

func TestICEReadAmplification(t *testing.T) {
	if got := ICE().readAmplification(); got != 32 {
		t.Fatalf("ICE read amp = %v, want 32 (4-bit x 8x encoding)", got)
	}
	if got := ICEESP().readAmplification(); got != 4 {
		t.Fatalf("ICE-ESP read amp = %v, want 4", got)
	}
	eightBit := ICEConfig{precisionBits: 8, encodingOverhead: 32}
	if got := eightBit.readAmplification(); got != 256 {
		t.Fatalf("8-bit read amp = %v", got)
	}
}

func TestICELatencyGrowsWithPages(t *testing.T) {
	cfg := ssd.SSD1()
	l1 := ICE().Latency(cfg, 1000, 100, 143)
	l2 := ICE().Latency(cfg, 2000, 100, 143)
	if l2 <= l1 {
		t.Fatalf("latency did not grow: %v <= %v", l1, l2)
	}
}

func TestICESlowerThanICEESP(t *testing.T) {
	cfg := ssd.SSD1()
	ice := ICE().Latency(cfg, 5000, 1000, 143)
	esp := ICEESP().Latency(cfg, 5000, 1000, 143)
	if ice <= esp {
		t.Fatalf("ICE %v not slower than ICE-ESP %v", ice, esp)
	}
	ratio := float64(ice) / float64(esp)
	if ratio < 4 || ratio > 12 {
		t.Fatalf("ICE/ICE-ESP ratio %v, want ~8x (encoding overhead)", ratio)
	}
}

func TestICEEnergyGrowsWithWork(t *testing.T) {
	cfg := ssd.SSD1()
	l := ICE().Latency(cfg, 1000, 100, 143)
	e1 := ICE().Energy(cfg, 1000, l)
	e2 := ICE().Energy(cfg, 2000, l)
	if e2 <= e1 {
		t.Fatal("energy did not grow with pages")
	}
}

func TestNDSearchLatencyGrowsWithHops(t *testing.T) {
	cfg := ssd.SSD1()
	nd := NDSearch()
	l1 := nd.Latency(cfg, 1000)
	l2 := nd.Latency(cfg, 4000)
	if l2 <= l1 {
		t.Fatalf("latency did not grow: %v <= %v", l1, l2)
	}
}

func TestNDSearchConflictsHurt(t *testing.T) {
	cfg := ssd.SSD1()
	smooth := NDSearchConfig{beamWidth: 64, dieConflictFactor: 1.0}
	rough := NDSearchConfig{beamWidth: 64, dieConflictFactor: 0.25}
	if rough.Latency(cfg, 10000) <= smooth.Latency(cfg, 10000) {
		t.Fatal("conflicts did not increase latency")
	}
}

func TestNDSearchParallelismCappedByDies(t *testing.T) {
	cfg := ssd.SSD1() // 128 dies
	wide := NDSearchConfig{beamWidth: 100000, dieConflictFactor: 1.0}
	capped := NDSearchConfig{beamWidth: cfg.Geo.Dies(), dieConflictFactor: 1.0}
	if wide.Latency(cfg, 1e6) != capped.Latency(cfg, 1e6) {
		t.Fatal("beam parallelism not capped by die count")
	}
}

func TestNDSearchEnergy(t *testing.T) {
	cfg := ssd.SSD1()
	nd := NDSearch()
	l := nd.Latency(cfg, 1000)
	if nd.Energy(cfg, 1000, l) <= 0 {
		t.Fatal("non-positive energy")
	}
}
