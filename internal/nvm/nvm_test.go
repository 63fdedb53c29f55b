package nvm

import (
	"sync"
	"testing"
	"time"
)

func newTracked(t *testing.T) *Memory {
	t.Helper()
	return New(Config{Size: 1 << 20, TrackPersistence: true})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	m := newTracked(t)
	m.Store64(8, 42)
	if got := m.Load64(8); got != 42 {
		t.Fatalf("Load64 = %d, want 42", got)
	}
	m.StoreNT64(16, 99)
	if got := m.Load64(16); got != 99 {
		t.Fatalf("Load64 after NT = %d, want 99", got)
	}
}

func TestArenaStartsZeroed(t *testing.T) {
	m := newTracked(t)
	for _, addr := range []uint64{0, 8, 64, 1<<20 - 8} {
		if got := m.Load64(addr); got != 0 {
			t.Fatalf("fresh arena word at %#x = %d, want 0", addr, got)
		}
	}
}

func TestCachedStoreLostOnCrash(t *testing.T) {
	m := newTracked(t)
	m.Store64(8, 42)
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := m.Load64(8); got != 0 {
		t.Fatalf("cached store survived crash: %d", got)
	}
}

func TestNTStoreSurvivesCrash(t *testing.T) {
	m := newTracked(t)
	m.StoreNT64(8, 42)
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := m.Load64(8); got != 42 {
		t.Fatalf("NT store lost on crash: %d, want 42", got)
	}
}

func TestFlushPersistsLine(t *testing.T) {
	m := newTracked(t)
	// Two words on the same line, one on another line.
	m.Store64(64, 1)
	m.Store64(72, 2)
	m.Store64(128, 3)
	m.Flush(64)
	m.Fence()
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := m.Load64(64); got != 1 {
		t.Errorf("flushed word 64 = %d, want 1", got)
	}
	if got := m.Load64(72); got != 2 {
		t.Errorf("flushed word 72 = %d, want 2", got)
	}
	if got := m.Load64(128); got != 0 {
		t.Errorf("unflushed word 128 = %d, want 0", got)
	}
}

func TestFlushRangeCoversAllLines(t *testing.T) {
	m := newTracked(t)
	for i := uint64(0); i < 40; i++ {
		m.Store64(256+i*8, i+1)
	}
	m.FlushRange(256, 40*8)
	m.Fence()
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		if got := m.Load64(256 + i*8); got != i+1 {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestFlushAllPersistsEverything(t *testing.T) {
	m := newTracked(t)
	addrs := []uint64{8, 1024, 4096, 65536}
	for i, a := range addrs {
		m.Store64(a, uint64(i)+100)
	}
	n := m.FlushAll()
	if n != len(addrs) {
		t.Fatalf("FlushAll wrote %d lines, want %d", n, len(addrs))
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if got := m.Load64(a); got != uint64(i)+100 {
			t.Fatalf("addr %#x = %d, want %d", a, got, i+100)
		}
	}
}

func TestFlushCleanLineIsFree(t *testing.T) {
	m := newTracked(t)
	m.Store64(8, 1)
	m.Flush(8)
	before := m.Stats()
	m.Flush(8) // now clean
	d := m.Stats().Sub(before)
	if d.LineWrites != 0 || d.Flushes != 0 {
		t.Fatalf("clean-line flush charged: %+v", d)
	}
}

func TestMisalignedAddressPanics(t *testing.T) {
	m := newTracked(t)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned store did not panic")
		}
	}()
	m.Store64(9, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	m := newTracked(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range store did not panic")
		}
	}()
	m.Store64(uint64(m.Size()), 1)
}

func TestWriteCoalescing(t *testing.T) {
	m := newTracked(t)
	before := m.Stats()
	// Eight NT stores to the same line: one charged write.
	for i := uint64(0); i < 8; i++ {
		m.StoreNT64(i*8, i)
	}
	d := m.Stats().Sub(before)
	if d.LineWrites != 1 {
		t.Fatalf("same-line NT stores charged %d line writes, want 1", d.LineWrites)
	}
	if d.Coalesced != 7 {
		t.Fatalf("coalesced = %d, want 7", d.Coalesced)
	}
	// A fence closes the window.
	m.Fence()
	before = m.Stats()
	m.StoreNT64(0, 1)
	if d := m.Stats().Sub(before); d.LineWrites != 1 {
		t.Fatalf("post-fence NT store charged %d line writes, want 1", d.LineWrites)
	}
	// Alternating lines never coalesce.
	m.Fence()
	before = m.Stats()
	m.StoreNT64(0, 1)
	m.StoreNT64(64, 1)
	m.StoreNT64(0, 2)
	if d := m.Stats().Sub(before); d.LineWrites != 3 {
		t.Fatalf("alternating-line NT stores charged %d, want 3", d.LineWrites)
	}
}

func TestSimulatedClockCharges(t *testing.T) {
	m := New(Config{Size: 1 << 16, WriteLatency: 150 * time.Nanosecond, FenceLatency: 100 * time.Nanosecond})
	m.StoreNT64(0, 1)
	m.StoreNT64(64, 1)
	m.Fence()
	want := 2*150*time.Nanosecond + 100*time.Nanosecond
	if got := m.Stats().Simulated(); got != want {
		t.Fatalf("simulated clock = %v, want %v", got, want)
	}
}

func TestAdvanceClock(t *testing.T) {
	m := newTracked(t)
	m.AdvanceClock(3 * time.Microsecond)
	if got := m.Stats().Simulated(); got != 3*time.Microsecond {
		t.Fatalf("AdvanceClock: clock = %v", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := newTracked(t)
	src := []byte("hello, persistent world! 0123456789")
	m.Write(512, src)
	got := make([]byte, len(src))
	m.Read(512, got)
	if string(got) != string(src) {
		t.Fatalf("Read = %q, want %q", got, src)
	}
}

func TestBytesPartialWordPreservesNeighbours(t *testing.T) {
	m := newTracked(t)
	m.Store64(512, 0xffffffffffffffff)
	m.Write(512, []byte{1, 2, 3}) // partial word write
	got := make([]byte, 8)
	m.Read(512, got)
	want := []byte{1, 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestWriteNTDurable(t *testing.T) {
	m := newTracked(t)
	src := []byte("durable payload across lines: 0123456789abcdef0123456789abcdef0123456789")
	m.WriteNT(4096, src)
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	m.Read(4096, got)
	if string(got) != string(src) {
		t.Fatalf("WriteNT lost data on crash: %q", got)
	}
}

func TestZero(t *testing.T) {
	m := newTracked(t)
	m.WriteNT(256, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	m.Zero(256, 10)
	got := make([]byte, 12)
	m.Read(256, got)
	for i := 0; i < 10; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed: %v", i, got)
		}
	}
	if got[10] != 11 || got[11] != 12 {
		t.Fatalf("Zero clobbered neighbours: %v", got)
	}
}

func TestCrashInjectionFiresAtNthDurableOp(t *testing.T) {
	m := newTracked(t)
	m.SetCrashAfter(3)
	crashed := m.RunToCrash(func() {
		m.StoreNT64(8, 1)   // durable op 1
		m.StoreNT64(80, 2)  // durable op 2
		m.StoreNT64(160, 3) // would be op 3: crashes before applying
		t.Error("unreachable statement executed")
	})
	if !crashed {
		t.Fatal("expected injected crash")
	}
	if got := m.Load64(8); got != 1 {
		t.Errorf("op 1 lost: %d", got)
	}
	if got := m.Load64(80); got != 2 {
		t.Errorf("op 2 lost: %d", got)
	}
	if got := m.Load64(160); got != 0 {
		t.Errorf("op 3 applied despite crash before it: %d", got)
	}
}

func TestCrashInjectionDisarm(t *testing.T) {
	m := newTracked(t)
	m.SetCrashAfter(5)
	m.StoreNT64(8, 1)
	m.Fence()
	if got := m.CrashCountdown(); got != 3 {
		t.Fatalf("countdown %d after two durable ops of 5, want 3", got)
	}
	m.SetCrashAfter(0)
	if got := m.CrashCountdown(); got != 0 {
		t.Fatalf("countdown %d after disarm, want 0", got)
	}
	if crashed := m.RunToCrash(func() { m.StoreNT64(8, 1) }); crashed {
		t.Fatal("disarmed injection fired")
	}
}

func TestRunToCrashPropagatesOtherPanics(t *testing.T) {
	m := newTracked(t)
	defer func() {
		if v := recover(); v == nil || v.(string) != "boom" {
			t.Fatalf("recover = %v, want boom", v)
		}
	}()
	m.RunToCrash(func() { panic("boom") })
}

func TestCrashWithoutTrackingFails(t *testing.T) {
	m := New(Config{Size: 1 << 16})
	if err := m.Crash(); err != ErrNoPersistence {
		t.Fatalf("Crash without tracking: err = %v, want ErrNoPersistence", err)
	}
}

func TestImageRoundTrip(t *testing.T) {
	m := newTracked(t)
	m.StoreNT64(8, 77)
	m.Store64(16, 88) // cached: should not be in the image
	img, err := m.PersistentImage()
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Config{Size: 1 << 20, TrackPersistence: true})
	if err := m2.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	if got := m2.Load64(8); got != 77 {
		t.Errorf("restored word = %d, want 77", got)
	}
	if got := m2.Load64(16); got != 0 {
		t.Errorf("cached word leaked into image: %d", got)
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	m := newTracked(t)
	if err := m.LoadImage([]byte("not an image")); err == nil {
		t.Fatal("garbage image accepted")
	}
}

func TestLoadImageRejectsOversized(t *testing.T) {
	big := New(Config{Size: 1 << 21, TrackPersistence: true})
	img, err := big.PersistentImage()
	if err != nil {
		t.Fatal(err)
	}
	small := New(Config{Size: 1 << 16, TrackPersistence: true})
	if err := small.LoadImage(img); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestConcurrentDistinctWordStores(t *testing.T) {
	m := newTracked(t)
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * perG * 8
			for i := uint64(0); i < perG; i++ {
				m.StoreNT64(base+i*8, uint64(g)<<32|i)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		base := uint64(g) * perG * 8
		for i := uint64(0); i < perG; i++ {
			if got := m.Load64(base + i*8); got != uint64(g)<<32|i {
				t.Fatalf("g=%d i=%d: got %#x", g, i, got)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Size == 0 || cfg.Size%LineSize != 0 {
		t.Fatalf("bad default size %d", cfg.Size)
	}
	if cfg.WriteLatency != DefaultWriteLatency || cfg.FenceLatency != DefaultFenceLatency {
		t.Fatalf("bad default latencies: %v %v", cfg.WriteLatency, cfg.FenceLatency)
	}
	odd := Config{Size: 100}.withDefaults()
	if odd.Size != 128 {
		t.Fatalf("size not rounded to line: %d", odd.Size)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Loads: 10, NTStores: 5, SimulatedNS: 1000}
	b := Stats{Loads: 4, NTStores: 2, SimulatedNS: 400}
	d := a.Sub(b)
	if d.Loads != 6 || d.NTStores != 3 || d.SimulatedNS != 600 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Simulated() != 600*time.Nanosecond {
		t.Fatalf("Simulated = %v", d.Simulated())
	}
}

func TestEmulatedLatencySpins(t *testing.T) {
	m := New(Config{Size: 1 << 16, EmulateLatency: true, WriteLatency: 200 * time.Microsecond})
	start := time.Now()
	m.StoreNT64(0, 1)
	if elapsed := time.Since(start); elapsed < 150*time.Microsecond {
		t.Fatalf("emulated store returned too fast: %v", elapsed)
	}
}

func TestCrashResetsCoalescingWindow(t *testing.T) {
	m := newTracked(t)
	m.StoreNT64(0, 1)
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	m.StoreNT64(8, 2) // same line as before the crash, but window was reset
	if d := m.Stats().Sub(before); d.LineWrites != 1 {
		t.Fatalf("post-crash store coalesced with pre-crash window: %+v", d)
	}
}
