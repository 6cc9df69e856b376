// Steering: CUMULVS-style interactive visualization and computational
// steering of a running parallel simulation.
//
// A 2-D heat-equation solver runs on 4 ranks. A front-end "viewer"
// attaches over the out-of-band bridge, opens a decimated view of the
// temperature field (a persistent parallel data channel with free-running
// synchronization — the viewer samples the newest frame and never slows
// the simulation), renders ASCII snapshots, and steers the diffusivity
// parameter mid-run. A service goroutine on the simulation side handles
// viewer control traffic; the solver cohort reads the steering registry
// each step, so changes take effect live.
//
// Run:
//
//	go run ./examples/steering
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"

	"mxn"
	"mxn/internal/cumulvs"
	"mxn/internal/meshsim"
)

const (
	gridN  = 64
	np     = 4
	steps  = 400
	stride = 4
)

func main() {
	solver, err := meshsim.NewHeat2D(gridN, np)
	if err != nil {
		log.Fatal(err)
	}
	simSide, viewSide := mxn.BridgePair()
	sim := cumulvs.NewSim(np, simSide)
	desc, err := mxn.NewDescriptor("temperature", mxn.Float64, mxn.ReadOnly, solver.Template())
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.RegisterField(desc); err != nil {
		log.Fatal(err)
	}
	if err := sim.RegisterParam("alpha", 0.05); err != nil {
		log.Fatal(err)
	}

	// The simulation's service loop: handles view requests, steering
	// updates and the stop notice concurrently with the solver.
	go func() {
		for {
			cont, err := sim.Service(1)
			if err != nil {
				log.Fatalf("service: %v", err)
			}
			if !cont {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runViewer(viewSide)
	}()

	// The solver cohort: every rank steps and posts frames; rank 0 reads
	// the steered parameter and broadcasts it so the cohort stays
	// consistent within a step.
	mxn.Run(np, func(c *mxn.Comm) {
		rank := c.Rank()
		u := solver.Init(rank)
		for step := 0; step < steps; step++ {
			var alpha float64
			if rank == 0 {
				alpha, _ = sim.Param("alpha")
			}
			alpha = c.Bcast(0, alpha).(float64)
			u = solver.Step(c, rank, u, alpha, 0)
			if err := sim.PostFrame("temperature", rank, u); err != nil {
				log.Fatalf("rank %d: %v", rank, err)
			}
		}
		if err := sim.CloseFrames("temperature", rank); err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
	})
	wg.Wait()
}

// runViewer attaches, watches, steers, and renders.
func runViewer(bridge mxn.Bridge) {
	viewer := cumulvs.NewViewer(bridge)
	ch, err := viewer.OpenView("main", cumulvs.View{
		Field:  "temperature",
		Stride: []int{stride, stride},
		Sync:   cumulvs.Latest,
	})
	if err != nil {
		log.Fatal(err)
	}
	frame := make([]float64, ch.FrameLen())
	dims := ch.Dims()

	epoch, err := ch.NextFrame(frame)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frame at epoch %d (alpha=0.05):\n%s\n", epoch, render(frame, dims))
	peakBefore, totalBefore := peak(frame), total(frame)

	// Steer the diffusivity up mid-run; heat should spread visibly
	// faster afterwards.
	if err := viewer.SetParam("alpha", 0.24); err != nil {
		log.Fatal(err)
	}
	// Sample until the simulation closes the stream, keeping the last
	// complete frame.
	lastFrame := make([]float64, len(frame))
	var last uint64
	for {
		epoch, err = ch.NextFrame(frame)
		if errors.Is(err, cumulvs.ErrStreamEnded) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		last = epoch
		copy(lastFrame, frame)
	}
	fmt.Printf("frame at epoch %d (after steering alpha to 0.24):\n%s\n", last, render(lastFrame, dims))
	fmt.Printf("diffusion accelerated: peak %.1f → %.1f (interior heat %.0f → %.0f leaks through the cold boundary)\n",
		peakBefore, peak(lastFrame), totalBefore, total(lastFrame))
	if peak(lastFrame) >= peakBefore || total(lastFrame) >= totalBefore {
		log.Fatal("steering: the steered frame's peak and heat are not both below the unsteered frame's")
	}
	if err := viewer.Stop(); err != nil {
		log.Fatal(err)
	}
}

func total(f []float64) float64 {
	s := 0.0
	for _, v := range f {
		s += v
	}
	return s
}

func peak(f []float64) float64 {
	m := 0.0
	for _, v := range f {
		if v > m {
			m = v
		}
	}
	return m
}

// render maps the frame to ASCII shades.
func render(frame []float64, dims []int) string {
	shades := " .:-=+*#%@"
	maxV := peak(frame)
	if maxV == 0 {
		maxV = 1
	}
	var b strings.Builder
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			v := frame[i*dims[1]+j] / maxV
			k := int(v * float64(len(shades)-1))
			if k >= len(shades) {
				k = len(shades) - 1
			}
			b.WriteByte(shades[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
