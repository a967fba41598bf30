package main

import "time"

// The benchmark runs on a share of a machine whose speed drifts: a fixed
// single-threaded loop ran 1.8 times faster at one minute than a minute
// before, on the 2-core VM the benchmark was defined on, and that drift,
// not the program, set most of the spread between runs. So the closed-
// loop client times a fixed reference computation, the probe, between its
// operations, and the window's timings are scaled to a host on which the
// probe takes probeNominal. The probe shares no code with jobench: a
// change to jobench moves the scaled timings exactly as much as it moves
// the raw ones, while the host's drift moves the probe too and largely
// cancels. Raw timings and the slowdown are printed as notes.

// probeNominal is the probe's usual duration on the reference host (the
// definition VM at its usual speed).
const probeNominal = 600 * time.Microsecond

// probeEvery is how often a client probes: after the first operation that
// ends this long after its previous probe.
const probeEvery = 20 * time.Millisecond

const (
	probeWords = 1 << 20 // a 4 MiB table: beyond the core's own caches, like most of jobench's data
	probeKeys  = 1 << 12
	probeSteps = 6000
)

// prober runs the probe. It allocates nothing after newProber, so garbage
// collection does not charge it for other goroutines' allocations; each
// client has its own.
type prober struct {
	words []uint32
	table map[uint32]uint32
	x     uint32
	sink  uint32
	last  time.Time
}

func newProber() *prober {
	p := &prober{words: make([]uint32, probeWords), table: make(map[uint32]uint32, probeKeys), x: 2463534242}
	for i := range p.words {
		p.words[i] = uint32(i) * 2654435761
	}
	for k := uint32(0); k < probeKeys; k++ {
		p.table[k] = k
	}
	p.last = time.Now()
	return p
}

// run performs the probe once and returns its duration: xorshift-driven
// random reads and writes in the table, and hash-map updates.
func (p *prober) run() time.Duration {
	t0 := time.Now()
	x, acc := p.x, p.sink
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		acc += p.words[x&(probeWords-1)]
		p.words[(x>>11)&(probeWords-1)] = acc
		p.table[x&(probeKeys-1)] += acc
	}
	p.x, p.sink = x, acc
	p.last = time.Now()
	return p.last.Sub(t0)
}

// due reports whether probeEvery has passed since the last probe.
func (p *prober) due() bool { return time.Since(p.last) >= probeEvery }

// slowdown is the probes' mean duration over probeNominal: 1 on the
// reference host, 2 on one that runs the probe half as fast. The mean, not
// the median, so that stalls of the host (the benchmark's threads
// descheduled for milliseconds) count in proportion to the time they take,
// as they do in the operations' times. No probes give 1.
func slowdown(durs []time.Duration) float64 {
	if len(durs) == 0 {
		return 1
	}
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	return float64(sum) / float64(len(durs)) / float64(probeNominal)
}
