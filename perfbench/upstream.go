package main

import (
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// zone is the DNSBLv6 zone the benchmark's blacklist serves.
const zone = "bl6.perfbench.test"

// upstreamConn is the UDP socket under the benchmark's DNSBL server. It
// counts every query that reaches the server and, when delay is set,
// holds each reply for a sampled latency before sending it. Replies are
// sent from timers, so one slow answer never holds up the server's
// serial read loop: a remote blacklist answers queries concurrently.
type upstreamConn struct {
	net.PacketConn
	delay   func() time.Duration // nil: answer at once
	queries atomic.Int64

	mu      sync.Mutex // orders pending.Add before Close's Wait
	closed  bool
	pending sync.WaitGroup
}

func (u *upstreamConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := u.PacketConn.ReadFrom(p)
	if err == nil {
		u.queries.Add(1)
	}
	return n, from, err
}

func (u *upstreamConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if u.delay == nil {
		return u.PacketConn.WriteTo(p, to)
	}
	reply := append([]byte(nil), p...)
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return 0, net.ErrClosed
	}
	u.pending.Add(1)
	u.mu.Unlock()
	time.AfterFunc(u.delay(), func() {
		defer u.pending.Done()
		// A reply due after shutdown finds the socket closed; the
		// querier is gone by then too.
		_, _ = u.PacketConn.WriteTo(reply, to)
	})
	return len(p), nil
}

// Close closes the socket and waits for every delayed reply timer.
func (u *upstreamConn) Close() error {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	err := u.PacketConn.Close()
	u.pending.Wait()
	return err
}

// blacklist is the in-process DNSBL: a dnsbl.V6Handler over the
// listed sources, served on a counting (and optionally slow) socket.
type blacklist struct {
	conn *upstreamConn
	srv  *dns.Server
}

// startBlacklist serves list. With latency set, each reply is delayed
// by a draw from the Fig-5 CBL curve (dnsbl.DefaultLatency). The draws
// are quasi-random: the k-th reply takes the curve's quantile at the
// golden-ratio sequence point k·φ⁻¹ past a seeded offset, so every
// run's delays follow the curve closely and runs of different seeds
// differ in which query waits, not in how long queries wait in all. The
// delay function runs only on the server's read loop, so it needs no
// lock.
func startBlacklist(list *dnsbl.List, latency bool, seed uint64) (*blacklist, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	u := &upstreamConn{PacketConn: pc}
	if latency {
		curve := dnsbl.DefaultLatency.Sampler()
		q := sim.NewRNG(seed).Float64()
		u.delay = func() time.Duration {
			q = math.Mod(q+goldenStep, 1)
			return time.Duration(curve.Quantile(q) * float64(time.Millisecond))
		}
	}
	return &blacklist{conn: u, srv: dns.NewServer(u, &dnsbl.V6Handler{List: list})}, nil
}

// goldenStep is φ⁻¹, the additive step of the golden-ratio sequence.
const goldenStep = 0.6180339887498949

func (b *blacklist) addr() string { return b.srv.Addr().String() }

func (b *blacklist) close() { b.srv.Close() }

// listShare is the fraction of unique spam sources on the blacklist.
const listShare = 0.5

// buildList lists a seeded share of the trace's unique spam sources, at
// the loopback aliases the replayer dials them from. Listing is decided
// once per source, not per connection: per-connection listing puts
// nearly every repeat offender on the list. The choice is systematic
// over the sources ranked by connection count, from a seeded start, so
// every seed lists the same share of the heavy hitters and of the
// one-off sources alike; independent coin flips would let one unlisted
// top source swing the accepted mail of a run.
func buildList(conns []trace.Conn, seed uint64) *dnsbl.List {
	count := make(map[addr.IPv4]int)
	var sources []addr.IPv4 // in order of first appearance
	for i := range conns {
		c := &conns[i]
		if !c.Spam {
			continue
		}
		if count[c.ClientIP] == 0 {
			sources = append(sources, c.ClientIP)
		}
		count[c.ClientIP]++
	}
	sort.SliceStable(sources, func(i, j int) bool { return count[sources[i]] > count[sources[j]] })
	list := dnsbl.NewList(zone)
	acc := sim.NewRNG(seed).Float64()
	for _, ip := range sources {
		if acc += listShare; acc >= 1 {
			acc--
			list.Add(workload.LoopbackSource(ip), dnsbl.CodeZombie)
		}
	}
	return list
}
