package network

import (
	"math"
	"testing"
	"time"
)

func TestDefaults(t *testing.T) {
	// The link is the paper's WiFi regime (§V-A); the run archives'
	// input and transmit stages are billed at these two values.
	if BandwidthMbps != 100 || RTT != 16*time.Millisecond {
		t.Errorf("link = %d Mbps, RTT %v", BandwidthMbps, RTT)
	}
}

func TestUplinkLatency(t *testing.T) {
	if Uplink() != 8*time.Millisecond {
		t.Errorf("uplink = %v", Uplink())
	}
}

func TestTransmitLatencySerialisation(t *testing.T) {
	// 1 MB at 100 Mbps = 80 ms serialisation + 8 ms propagation.
	if got, want := Transmit(1_000_000), 88*time.Millisecond; got != want {
		t.Errorf("transmit(1MB) = %v, want %v", got, want)
	}
	// Zero and negative payloads cost only propagation.
	if Transmit(0) != 8*time.Millisecond {
		t.Errorf("transmit(0) = %v", Transmit(0))
	}
	if Transmit(-5) != 8*time.Millisecond {
		t.Error("negative payload should clamp to 0")
	}
}

func TestBandwidthSavings(t *testing.T) {
	s, err := BandwidthSavings(34, 100)
	if err != nil || math.Abs(s-0.66) > 1e-9 {
		t.Errorf("savings = %f, %v", s, err)
	}
	if _, err := BandwidthSavings(10, 0); err == nil {
		t.Error("zero reference should fail")
	}
	if _, err := BandwidthSavings(-1, 10); err == nil {
		t.Error("negative payload should fail")
	}
}
