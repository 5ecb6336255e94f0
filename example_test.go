package gamestreamsr_test

import (
	"fmt"
	"log"
	"math"
	"time"

	gssr "gamestreamsr"
)

// Example streams one simulated GOP through the GameStreamSR pipeline and
// reports whether the RoI upscale met the 60 FPS budget.
func Example() {
	session, err := gssr.NewSession(gssr.Config{SimDiv: 8, GOPSize: 4})
	if err != nil {
		log.Fatal(err)
	}
	result, err := session.Run(4)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range result.Frames[:1] {
		fmt.Println("meets 60 FPS:", f.Stages.Upscale <= gssr.RealTimeDeadline)
	}
	// Output:
	// meets 60 FPS: true
}

// ExampleNewRoIDetector runs depth-guided RoI detection on a rendered game
// frame — the paper's server-side step.
func ExampleNewRoIDetector() {
	game, _ := gssr.GameByID("G3")
	out := game.Render(&gssr.Renderer{}, 30, 160, 90)
	det, _ := gssr.NewRoIDetector(gssr.RoIConfig{WindowW: 36, WindowH: 36})
	rect, _ := det.Detect(out.Depth)
	fmt.Println("RoI size:", rect.W, "x", rect.H, "inside frame:", rect.In(160, 90))
	// Output:
	// RoI size: 36 x 36 inside frame: true
}

// ExampleDeviceProfile_MaxRoIWindow shows the §IV-B1 capability probe: the
// largest RoI the Tab S8's NPU can super-resolve within 16.66 ms.
func ExampleDeviceProfile_MaxRoIWindow() {
	dev, _ := gssr.DeviceByName("s8")
	fmt.Println(dev.MaxRoIWindow(gssr.RealTimeDeadline))
	// Output:
	// 304
}

// ExampleMergeRoI composites a DNN-upscaled RoI into a bilinearly upscaled
// frame — the client-side merge of the paper's Fig. 9.
func ExampleMergeRoI() {
	game, _ := gssr.GameByID("G1")
	lr := game.Render(&gssr.Renderer{}, 0, 160, 90)
	roi := gssr.Rect{X: 60, Y: 30, W: 40, H: 40}

	base, _ := gssr.Resize(lr.Color, 320, 180, gssr.Bilinear)
	patch, _ := lr.Color.SubImage(roi.X, roi.Y, roi.W, roi.H)
	hr, _ := gssr.NewFastSR().Upscale(patch.Compact(), 2)
	err := gssr.MergeRoI(base, hr, roi, 2)
	fmt.Println("merged:", err == nil, "frame:", base.W, "x", base.H)
	// Output:
	// merged: true frame: 320 x 180
}

// ExampleNewWorkload defines a brand-new game scene through the public API
// and streams it through the full pipeline — the "bring your own game" path.
// Everything the built-in Table I workloads get (depth-guided RoI detection,
// RoI-assisted SR, latency/energy accounting) applies unchanged.
func ExampleNewWorkload() {
	// "Asteroid Run": the player ship dodges a drifting asteroid field. The
	// ship (near, textured, centre-low) is the natural RoI; asteroids recede
	// into a smooth far field.
	game := gssr.NewWorkload("CX1", "Asteroid Run", "Space shooter", asteroidRun)

	session, err := gssr.NewSession(gssr.Config{Game: game, SimDiv: 8, GOPSize: 12})
	if err != nil {
		log.Fatal(err)
	}
	result, err := session.Run(12)
	if err != nil {
		log.Fatal(err)
	}
	fps, _ := result.UpscaleFPS(gssr.ReferenceFrame)
	psnr, _ := result.MeanPSNR()
	fmt.Printf("%s: upscale %.1f FPS, mean PSNR %.2f dB\n", game, fps, psnr)
	for _, f := range result.Frames[:3] {
		fmt.Printf("  frame %d: RoI %v, MTP %.1f ms\n",
			f.Index, f.RoI, float64(f.Stages.MTP())/float64(time.Millisecond))
	}

	// The detector should lock onto the ship's near geometry.
	out := game.Render(&gssr.Renderer{}, 0, 320, 180)
	det, _ := gssr.NewRoIDetector(gssr.RoIConfig{WindowW: 72, WindowH: 72})
	rect, _ := det.Detect(out.Depth)
	fmt.Printf("full-res RoI on frame 0: %v\n", rect)
	// Output:
	// CX1 (Asteroid Run, Space shooter): upscale 61.3 FPS, mean PSNR 32.91 dB
	//   frame 0: RoI 36x36+62+28, MTP 67.4 ms
	//   frame 1: RoI 36x36+62+28, MTP 64.4 ms
	//   frame 2: RoI 36x36+60+28, MTP 64.4 ms
	// full-res RoI on frame 0: 72x72+124+56
}

// asteroidRun is ExampleNewWorkload's scene script: the world at time t
// (seconds).
func asteroidRun(t float64) (*gssr.Scene, gssr.Camera) {
	z := t * 6 // cruise speed
	var objects []gssr.SceneObject

	// Player ship: two textured boxes just ahead of the camera.
	sx := 1.5 * math.Sin(t*0.8)
	objects = append(objects,
		gssr.SceneObject{
			Shape: gssr.Box{
				Min: gssr.Vec3{X: sx - 0.9, Y: 0.8, Z: z + 4},
				Max: gssr.Vec3{X: sx + 0.9, Y: 1.4, Z: z + 6.5},
			},
			Mat: gssr.Material{
				Color:    gssr.Vec3{X: 0.75, Y: 0.78, Z: 0.85},
				TexScale: 3, TexAmp: 0.6, Octaves: 5, Seed: 1001,
			},
		},
		gssr.SceneObject{
			Shape: gssr.Box{
				Min: gssr.Vec3{X: sx - 0.3, Y: 1.4, Z: z + 4.8},
				Max: gssr.Vec3{X: sx + 0.3, Y: 1.8, Z: z + 5.8},
			},
			Mat: gssr.Material{
				Color:    gssr.Vec3{X: 0.3, Y: 0.6, Z: 0.9},
				TexScale: 4, TexAmp: 0.4, Octaves: 4, Seed: 1002,
			},
		},
	)

	// Asteroid field: deterministic pseudo-random spheres at many depths.
	for i := 0; i < 20; i++ {
		h := func(k int) float64 {
			v := math.Sin(float64(i*37+k)*12.9898) * 43758.5453
			return v - math.Floor(v)
		}
		objects = append(objects, gssr.SceneObject{
			Shape: gssr.Sphere{
				C: gssr.Vec3{X: (h(1) - 0.5) * 40, Y: 1 + h(2)*8, Z: z + 10 + h(3)*70},
				R: 0.6 + 2.2*h(4),
			},
			Mat: gssr.Material{
				Color:    gssr.Vec3{X: 0.45, Y: 0.42, Z: 0.4},
				TexScale: 1.8, TexAmp: 0.85, Octaves: 5, Seed: int64(2000 + i),
			},
		})
	}

	scene := &gssr.Scene{
		Objects:   objects,
		Light:     gssr.Vec3{X: 0.5, Y: 0.7, Z: -0.4}.Normalize(),
		Ambient:   0.25,
		SkyTop:    gssr.Vec3{X: 0.02, Y: 0.02, Z: 0.08}, // deep space
		SkyBottom: gssr.Vec3{X: 0.1, Y: 0.08, Z: 0.2},
		Near:      0.1,
		Far:       150,
	}
	cam := gssr.NewCamera(
		gssr.Vec3{X: sx * 0.5, Y: 2.2, Z: z},
		gssr.Vec3{X: sx, Y: 1.2, Z: z + 10},
		60, 16.0/9,
	)
	return scene, cam
}
