package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// BenchmarkPipelinedPut is the server row of the cost ledger: the kv
// overwrite (kv.BenchmarkPutOverwrite) through the next layer up — frame
// decode, the connection pipeline, the group-commit round and the reply,
// over a loopback connection. One connection sends 16-deep bursts of
// 16-byte overwrites on 1024 keys, to a store shaped as the daemon serves
// (8 stripes, one log shard, 64-record flush groups, group commit with a
// 100 µs window), with observability off and on: the pair's ns/op ratio is
// what recording spans, phases and the flight ring costs the wall clock.
// Beside -benchmem's columns it reports the device bill per PUT; the
// allocations counted are the whole process's, client included, and the
// client allocates nothing.
func BenchmarkPipelinedPut(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "obs=off"
		if on {
			name = "obs=on"
		}
		b.Run(name, func(b *testing.B) { benchmarkPipelinedPut(b, on) })
	}
}

func benchmarkPipelinedPut(b *testing.B, withObs bool) {
	var o *obs.Obs
	if withObs {
		o = obs.New(obs.NewRegistry(), obs.Config{})
	}
	st, err := rewind.Open(rewind.Options{ArenaSize: 64 << 20, LogShards: 1, GroupSize: 64,
		GroupCommit: true, GroupCommitWindow: 100 * time.Microsecond, GroupCommitMax: 64, Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 8, MaxValue: 512, Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	const hot, depth = 1024, 16
	value := []byte("fedcba9876543210")
	for k := uint64(0); k < hot; k++ {
		if err := kvs.Put(k, value); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(kvs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// One burst's frames, encoded once; each burst rewrites only the keys.
	var burst []byte
	keyAt := make([]int, depth)
	for i := 0; i < depth; i++ {
		keyAt[i] = len(burst) + 9
		body := wire.AppendBytes(wire.AppendU64(nil, 0), value)
		burst = wire.AppendFrame(burst, uint32(i), wire.OpPut, body)
	}
	br := bufio.NewReaderSize(c, bufSize)
	var frame []byte
	next := uint64(0)
	send := func(n int) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(burst[keyAt[i]:], next*7919%hot)
			next++
		}
		end := len(burst)
		if n < depth {
			end = keyAt[n] - 9
		}
		if _, err := c.Write(burst[:end]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, status, _, err := wire.ReadFrameInto(br, &frame); err != nil || status != wire.StatusOK {
				b.Fatalf("PUT reply: status %d, %v", status, err)
			}
		}
	}
	send(depth) // the connection's buffers, the pools

	var lineWrites, fences, simNs, logB int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		dev, log := st.Stats(), st.LogBytes()
		for end := min(b.N, i+2048); i < end; i += depth {
			send(min(depth, end-i))
		}
		b.StopTimer()
		d := st.Stats().Sub(dev)
		logB += st.LogBytes() - log
		lineWrites, fences, simNs = lineWrites+d.LineWrites, fences+d.Fences, simNs+d.SimulatedNS
		st.Checkpoint()
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(logB)/n, "logB/op")
	b.ReportMetric(float64(lineWrites)/n, "lineWrites/op")
	b.ReportMetric(float64(fences)/n, "fences/op")
	b.ReportMetric(float64(simNs)/n, "simNs/op")
}
