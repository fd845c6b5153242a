package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A shared machine runs at a speed that changes by tens of percent
// within seconds: other tenants take CPU time ("steal"), and their work
// on the same cores and caches slows every instruction this machine
// executes, which CPU-time accounting does not remove. A run therefore
// times a fixed reference computation, part of this package and not of
// the program under test, throughout the run, and scales its CPU-time
// metrics by refKernelMs over the kernel's median time: the host's
// speed. The kernel runs only while no op is in flight, so ops do not
// compete with it; the program's background work, such as garbage
// collection, still may.

// refKernelMs fixes the scale of the host's speed: the kernel's median
// thread CPU time once measured on the recording host (a 2-vCPU Xeon VM
// at 2.1 GHz) with little steal.
const refKernelMs = 1.8

// calibrateEvery is how often the kernel runs between ops.
const calibrateEvery = 100 * time.Millisecond

// minCalibrations is the fewest kernel runs a speed is taken from.
const minCalibrations = 9

// calibrator runs the reference kernel every calibrateEvery, between
// ops: an op holds gate for reading, and the kernel takes it for
// writing, so it waits for the ops in flight and holds new ones back.
type calibrator struct {
	gate sync.RWMutex

	mu      sync.Mutex
	samples []float64     // the kernel's thread CPU time per run, ms
	cpu     time.Duration // CPU time all kernel runs took
	held    time.Duration // wall time the kernel held the gate

	input, work []uint64
	table       map[uint64]int
	buf         []byte
	sink        byte

	stop, done chan struct{}
}

func startCalibrator(seed uint64) *calibrator {
	c := &calibrator{
		input: make([]uint64, 1<<14), work: make([]uint64, 1<<14),
		table: make(map[uint64]int, 1<<12), buf: make([]byte, 64<<10),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	rng := rand.New(rand.NewPCG(seed, 0x63616c69))
	for i := range c.input {
		c.input[i] = rng.Uint64()
	}
	for i := range c.buf {
		c.buf[i] = byte(rng.Uint32())
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(calibrateEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

// kernel is the reference computation: sorting, hashing and map
// updates over fixed inputs, without heap allocation.
func (c *calibrator) kernel() {
	copy(c.work, c.input)
	slices.Sort(c.work)
	clear(c.table)
	for i := 0; i < len(c.work); i += 4 {
		c.table[c.work[i]] = i
	}
	h := sha256.Sum256(c.buf)
	c.sink ^= h[0] ^ byte(len(c.table))
}

// sample runs the kernel once between ops and records its time.
func (c *calibrator) sample() {
	c.gate.Lock()
	defer c.gate.Unlock()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0, t0 := time.Now(), threadCPU()
	c.kernel()
	d, held := threadCPU()-t0, time.Since(w0)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, float64(d)/float64(time.Millisecond))
	c.cpu += d
	c.held += held
}

// op runs f as one op: the kernel does not run while it is in flight.
// A nil calibrator runs f alone.
func (c *calibrator) op(f func()) {
	if c == nil {
		f()
		return
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	f()
}

// mark is a position in the kernel's samples.
func (c *calibrator) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

// usage is the CPU time the kernel runs took and the wall time they
// held ops back, so far.
func (c *calibrator) usage() (cpu, held time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cpu, c.held
}

// speed is the host's speed since mark: refKernelMs over the median of
// the kernel's times, topped up to minCalibrations runs.
func (c *calibrator) speed(from int) float64 {
	for c.mark()-from < minCalibrations {
		c.sample()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return refKernelMs / median(c.samples[from:])
}

// finish stops the ticker and waits for a kernel run in progress.
func (c *calibrator) finish() {
	close(c.stop)
	<-c.done
}

// threadCPU is the calling thread's CPU time, up to date to the
// nanosecond (getrusage lags by up to a scheduler tick).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}
