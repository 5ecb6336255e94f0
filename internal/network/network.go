// Package network bills the wireless link between the cloud gaming server
// and the mobile client as latency. The paper streams over high-speed WiFi
// (§V-A); the link here is that regime's deterministic formula — half-RTT
// propagation plus serialisation at the link bandwidth. Faults (latency,
// bandwidth caps, stalls, resets) are injected on a real connection by
// internal/faultnet, not modelled here.
package network

import (
	"fmt"
	"time"
)

const (
	// BandwidthMbps is the downlink throughput (WiFi-class).
	BandwidthMbps = 100
	// RTT is the round-trip propagation delay including access-point and
	// stack overheads (WiFi-class).
	RTT = 16 * time.Millisecond
)

// Uplink is the user-input → server delay (half the RTT; input
// packets are tiny).
func Uplink() time.Duration { return RTT / 2 }

// Transmit returns the server → client delay for a payload of n
// bytes: half-RTT propagation plus serialisation at the link bandwidth.
func Transmit(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	ser := time.Duration(float64(n*8) / (BandwidthMbps * 1e6) * float64(time.Second))
	return RTT/2 + ser
}

// BandwidthSavings returns the fractional downlink saving of streaming
// loBytes instead of hiBytes per frame (the paper's §IV-B2 observation:
// 720p + RoI coordinates needs ≈66% less bandwidth than a 2K stream).
func BandwidthSavings(loBytes, hiBytes int) (float64, error) {
	if hiBytes <= 0 {
		return 0, fmt.Errorf("network: non-positive reference size %d", hiBytes)
	}
	if loBytes < 0 {
		return 0, fmt.Errorf("network: negative payload size %d", loBytes)
	}
	return 1 - float64(loBytes)/float64(hiBytes), nil
}
