package bench

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
	"github.com/rewind-db/rewind/server"
)

// PipelineDepths are the in-flight request counts the pipeline figure
// sweeps on its single connection.
var PipelineDepths = []int{1, 2, 4, 8, 16, 32}

// Pipeline measures what ONE connection gets out of pipelining: acked
// overwrites per second of simulated device time against the number of
// requests the client keeps in flight, on the server figure's device (5µs
// fence). The server's connection loop publishes every buffered frame
// before it waits for durability, so a depth-d burst costs one log flush —
// fences per op fall as 1/d and throughput climbs until the per-op log
// and tree work is all that is left.
//
// The client side writes each burst of d PUT frames with one socket write
// and reads d replies before the next, so the burst boundaries — and with
// them the device counters the gate in bench_test.go reads — do not depend
// on scheduling. Wall-clock throughput is reported alongside, ungated.
func Pipeline(scale Scale) Figure {
	ops := scale.pick(1_920, 19_200) // a multiple of every depth
	fig := Figure{
		ID: "pipeline", Title: "One connection: acked-PUT throughput vs pipeline depth",
		XLabel: "requests in flight", YLabel: "kops/s (simulated) / fences-per-op / kops/s (wall)",
		Notes: fmt.Sprintf("loopback TCP, one connection, overwrites, %v fence (Fig10 regime)", serverFenceLatency),
	}
	var sim, fences, wall []Point
	for _, d := range PipelineDepths {
		r := pipelinePoint(d, ops)
		sim = append(sim, Point{X: float64(d), Y: r.simOps / 1e3})
		fences = append(fences, Point{X: float64(d), Y: r.fencesPerOp})
		wall = append(wall, Point{X: float64(d), Y: r.wallOps / 1e3})
	}
	fig.Series = append(fig.Series,
		Series{Name: "kops/s simulated", Points: sim},
		Series{Name: "fences/op", Points: fences},
		Series{Name: "kops/s wall", Points: wall},
	)
	return fig
}

type pipelineResult struct {
	simOps, wallOps, fencesPerOp float64
}

// pipelinePoint runs ops overwrites over one connection, depth at a time.
func pipelinePoint(depth, ops int) pipelineResult {
	st, err := rewind.Open(rewind.Options{
		ArenaSize:       1 << 28,
		GroupSize:       64, // as the server figure: keep the log's own flush schedule out of the way
		GroupCommit:     true,
		FenceLatency:    serverFenceLatency,
		DisableTracking: true,
	})
	if err != nil {
		panic(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 8, MaxValue: 16})
	if err != nil {
		panic(err)
	}
	const keys = 256
	for k := uint64(1); k <= keys; k++ {
		if err := kvs.Put(k, []byte{0, 0}); err != nil {
			panic(err)
		}
	}
	srv := server.New(kvs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)

	before := st.Stats()
	start := time.Now()
	var burst []byte
	for done := 0; done < ops; done += depth {
		burst = burst[:0]
		for i := 0; i < depth; i++ {
			n := done + i
			body := wire.AppendBytes(wire.AppendU64(nil, uint64(n%keys)+1), []byte{byte(n), 0xee})
			burst = wire.AppendFrame(burst, uint32(n), wire.OpPut, body)
		}
		if _, err := c.Write(burst); err != nil {
			panic(err)
		}
		for i := 0; i < depth; i++ {
			id, status, body, err := wire.ReadFrame(br)
			if err != nil {
				panic(err)
			}
			if id != uint32(done+i) || status != wire.StatusOK {
				panic(fmt.Sprintf("pipeline: reply %d: id %d status %d %q", done+i, id, status, body))
			}
		}
	}
	elapsed := time.Since(start)
	delta := st.Stats().Sub(before)
	return pipelineResult{
		simOps:      float64(ops) / simSeconds(delta),
		wallOps:     float64(ops) / elapsed.Seconds(),
		fencesPerOp: float64(delta.Fences) / float64(ops),
	}
}
