package main

import "time"

// The host-speed probe: a fixed piece of work that calls none of the
// simulator's code, timed between passes. On a shared host the speed of
// a core drifts by a quarter or more over tens of seconds, as neighbours
// load the caches it shares; the simulator's pass time drifts with it,
// and CPU time drifts as much as wall time, so the drift is not waiting.
// The probe's time moves with the same drift, and a change to the
// simulator moves the pass and not the probe, so a pass's time scaled by
// probeNominalS / (the probe's time around it) is its time at a fixed
// host speed: the reference seconds the gated time metrics, set-up time
// among them, report.
//
// The probe does what a simulator pass spends its time on, in turns:
// dependent loads over a table that fits an L2 cache, lookups in a hash
// map, and goroutine handoffs. Each of the three alone tracked the drift
// of at least one workload worse than their sum.
const (
	probeTableWords = 1 << 15 // 256 KB
	probeLoads      = 150_000
	probeMapKeys    = 1 << 12
	probeLookups    = 60_000
	probeHandoffs   = 5_000
	probeRounds     = 12
	// probeNominalS is one round's time on an idle 2-vCPU Xeon VM; it
	// only sets the scale of the reference second.
	probeNominalS = 0.006
)

type probe struct {
	table []uint64
	m     map[uint64]uint64
	sink  uint64
}

func newProbe() *probe {
	p := &probe{table: make([]uint64, probeTableWords), m: make(map[uint64]uint64, probeMapKeys)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.table[i] = x
	}
	for i := uint64(0); i < probeMapKeys; i++ {
		p.m[i*0x9E3779B97F4A7C15] = i
	}
	return p
}

// run does the probe's work and returns its wall time per round, in
// seconds. It allocates only its channels and the partner goroutine.
func (p *probe) run() float64 {
	start := time.Now()
	for r := 0; r < probeRounds; r++ {
		j := uint64(r)
		for i := 0; i < probeLoads; i++ {
			j = p.table[j&(probeTableWords-1)] + uint64(i) // each load's address depends on the last
		}
		var acc uint64
		for i := uint64(0); i < probeLookups; i++ {
			acc += p.m[((i*2654435761)&(probeMapKeys-1))*0x9E3779B97F4A7C15]
		}
		ping, pong := make(chan uint64), make(chan uint64)
		go func() {
			for v := range ping {
				pong <- v + 1
			}
			close(pong)
		}()
		v := uint64(0)
		for i := 0; i < probeHandoffs; i++ {
			ping <- v
			v = <-pong
		}
		close(ping)
		<-pong
		p.sink += j + acc + v
	}
	return time.Since(start).Seconds() / probeRounds
}
