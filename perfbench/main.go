// Command perfbench is the end-to-end benchmark of the spam-aware mail
// server. It assembles the stack cmd/smtpd -policy -dnsbl -mfs-sync
// builds (or, for the cluster workload, two directors in front of two
// such shards), with the stores in memory, replays a seeded spam-mix
// trace against it over loopback TCP from closed-loop client slots,
// checks every reply and every mailbox against the trace, and prints
// each metric with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones, measured in
// rounds with only the mailbox-store hook installed. With -trace 1 half
// the seconds run untraced and half traced, with a wrapper at every
// layer seam, and the metrics are the per-layer ones plus the layer
// budget; the run fails when the layers leave more than a tenth of the
// accepted-mail latency or the inbox latency unattributed. README.md
// describes the inputs, the oracle and the layer map.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload cluster --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/director"
	"repro/internal/dnsbl"
	"repro/internal/mailstore"
	"repro/internal/mfs"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/spool"
	"repro/internal/trace"
)

// setupRuns is how many times an untraced round assembles the stack;
// the last one serves the load, and setup_s is the median over every
// assembly of every round.
const setupRuns = 4

// maxUnattributed is the layer budget's failure threshold.
const maxUnattributed = 0.10

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name    string
	cluster bool // two directors in front of two shards
	latency bool // DNSBL replies delayed by the Fig-5 CBL curve
	// slots is the closed loop's client count.
	slots int
	// rounds is how many rounds an untraced run splits its seconds
	// into. Each round's stores live in memory until the round ends.
	rounds int
	// rate is trace connections generated per measured second: above
	// what the stack sustains, so the run ends on time, not on input.
	rate int
	gen  func(seed uint64, n int) []trace.Conn
}

var workloads = []*workloadSpec{
	// The departmental mix on one node: 67% spam, ~1.02 recipients per
	// ham mail, no DNSBL latency, so the durable path (queue, spool,
	// delivery, MFS) does most of the work. Runnable by hand but not in
	// BENCHMARK.json: cluster runs the same mix through the same layers,
	// and a third workload would not fit the time a full set of
	// benchmark runs may take.
	{name: "univ", slots: 2, rounds: 20, rate: 12000, gen: univTrace},
	// Sinkhole spam with bounce and unfinished shares and Fig-5 DNSBL
	// latency: the pre-trust front end does most of the work, and the
	// few accepted mails are multi-recipient. Connections mostly wait
	// on DNSBL replies, so it takes 8 slots to see enough of them.
	{name: "sinkhole", latency: true, slots: 8, rounds: 10, rate: 3000, gen: sinkholeTrace},
	// The univ mix through two directors × two shards with gossip on:
	// the only workload that reaches the director and gossip.
	{name: "cluster", cluster: true, slots: 2, rounds: 20, rate: 9000, gen: univTrace},
}

func univTrace(seed uint64, n int) []trace.Conn {
	return trace.NewUniv(trace.UnivConfig{
		Seed: seed, Connections: n, Domain: domain, Mailboxes: mailboxes,
	}).Generate()
}

func sinkholeTrace(seed uint64, n int) []trace.Conn {
	// The spam population scales with the trace, as trace.NewUniv
	// scales its spam side.
	prefixes := min(max(n/10, 16), trace.SinkholePrefixes)
	return trace.NewSinkhole(trace.SinkholeConfig{
		Seed:            seed,
		Connections:     n,
		Prefixes:        prefixes,
		BounceRatio:     0.25,
		UnfinishedRatio: 0.10,
		RcptDomain:      domain,
		ValidMailboxes:  mailboxes,
	}).Generate()
}

func main() {
	os.Exit(run(os.Stdout))
}

func run(stdout io.Writer) int {
	wname := flag.String("workload", "", "workload: univ, sinkhole or cluster")
	seed := flag.Uint64("seed", 1, "seed for the trace, the blacklist and the DNSBL latencies")
	seconds := flag.Int("seconds", 50, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the span dump")
	flag.Parse()

	var w *workloadSpec
	for _, c := range workloads {
		if c.name == *wname {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload univ|sinkhole|cluster, -seconds ≥ 1, -trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Enough for every round's segment, and for a traced run's halves.
	conns := w.gen(*seed, w.rate**seconds)
	list := buildList(conns, *seed+1)
	window := time.Duration(*seconds) * time.Second

	var doc report
	if *traced == 0 {
		// Rounds, each on a fresh stack and its own segment of the trace:
		// rates are the median round, which damps a stall on a shared
		// machine and the metastable queue backlog a saturated closed
		// loop can form; percentiles pool every round's samples; and
		// segments spread over the trace average out more of one seed's
		// input than one stretch would.
		var rounds []*result
		for i := 0; i < w.rounds; i++ {
			first := i * len(conns) / w.rounds
			seg := conns[first : (i+1)*len(conns)/w.rounds]
			res, err := measure(w, seg, first, list, *seed, window/time.Duration(w.rounds), false, setupRuns)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "round %d: %d conns, %d mails committed, %.1f mails/s, %.0f us CPU/conn\n",
				i, len(res.recs), res.committed, mailsPerSecond(res), cpuPerConn(res))
			rounds = append(rounds, res)
		}
		doc = endToEnd(rounds, w)
	} else {
		// Pairs of rounds as long as an untraced run's, each pair on
		// its own segment of the trace: first untraced, then traced, so
		// half the time runs each way on the same inputs. The per-layer
		// numbers come from the traced rounds and the tracing overhead
		// from the pairs.
		pairs := max(w.rounds/2, 1)
		var bases, traces []*result
		for i := 0; i < pairs; i++ {
			first := i * len(conns) / pairs
			seg := conns[first : (i+1)*len(conns)/pairs]
			for _, on := range []bool{false, true} {
				res, err := measure(w, seg, first, list, *seed, window/time.Duration(2*pairs), on, 1)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					return 1
				}
				if on {
					traces = append(traces, res)
				} else {
					bases = append(bases, res)
				}
			}
		}
		res := merge(traces)
		doc = perLayer(stdout, merge(bases), res, w)
		file := filepath.Join(*out, "spans-"+w.name+".tsv")
		if err := writeSpans(file, res.recs, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans written to", file)
	}
	doc.print(stdout)
	return 0
}

// result is everything one measured run observed.
type result struct {
	setup  []float64 // seconds per stack assembly
	recs   []connRec
	spans  []srvSpan
	checks []time.Duration

	start, windowEnd, drainEnd time.Duration
	exhausted                  bool
	drained                    bool

	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	rssKB      int64

	// Oracle verdicts on the mailbox contents.
	committed int // acked mails stored exactly once in every mailbox
	lost      int // (mail, mailbox) pairs acked but not stored
	dup       int // pairs stored more than once
	unacked   int // pairs stored for a mail the replayer never saw acked
	readErrs  int

	// Program counters, summed over nodes (and directors).
	srv         smtpserver.Stats
	queue       queue.Stats
	shardEnq    []int64
	dir         director.Stats
	handoffP99  float64 // seconds, max over directors
	gossip      director.GossipStats
	upstream    int64
	commit      mfs.CommitStats
	spoolFS     fsCounts
	mfsFS       fsCounts
	storeRcptsB int64 // Σ body bytes × mailboxes over store calls
}

// fsCounts totals the filesystem meters of one store kind.
type fsCounts struct {
	files, bytes, syncs int64
}

func (c *fsCounts) add(m *fsMeter) {
	c.files += m.files.Load()
	c.bytes += m.bytes.Load()
	c.syncs += m.syncs.Load()
}

func (c *fsCounts) sum(o fsCounts) {
	c.files += o.files
	c.bytes += o.bytes
	c.syncs += o.syncs
}

// merge folds the rounds of a traced run into one result. Rounds ran
// on stacks of their own, so each one's queue ids are prefixed with its
// index to keep them apart; windows, samples and counters add up.
func merge(rounds []*result) *result {
	m := &result{drained: true}
	for i, r := range rounds {
		m.recs = append(m.recs, r.recs...)
		for _, s := range r.spans {
			if s.id != "" {
				s.id = fmt.Sprintf("%d.%s", i, s.id)
			}
			m.spans = append(m.spans, s)
		}
		m.checks = append(m.checks, r.checks...)
		m.windowEnd += r.windowEnd - r.start
		m.drainEnd += r.drainEnd - r.start
		m.exhausted = m.exhausted || r.exhausted
		m.drained = m.drained && r.drained
		m.committed += r.committed
		m.lost += r.lost
		m.dup += r.dup
		m.unacked += r.unacked
		m.readErrs += r.readErrs

		m.srv.Connections += r.srv.Connections
		m.srv.PreTrustClosed += r.srv.PreTrustClosed
		m.srv.Handoffs += r.srv.Handoffs
		m.srv.EnqueueFailures += r.srv.EnqueueFailures
		m.srv.PolicyRejected += r.srv.PolicyRejected
		m.srv.PolicyTempfail += r.srv.PolicyTempfail
		m.queue.Enqueued += r.queue.Enqueued
		m.queue.Deferred += r.queue.Deferred
		if m.shardEnq == nil {
			m.shardEnq = make([]int64, len(r.shardEnq))
		}
		for j, n := range r.shardEnq {
			m.shardEnq[j] += n
		}
		m.dir.Connections += r.dir.Connections
		m.dir.PolicyRejected += r.dir.PolicyRejected
		m.dir.PolicyTempfail += r.dir.PolicyTempfail
		m.dir.ForwardRetries += r.dir.ForwardRetries
		m.dir.RcptSkew += r.dir.RcptSkew
		m.handoffP99 = max(m.handoffP99, r.handoffP99)
		m.gossip.Exchanges += r.gossip.Exchanges
		m.gossip.RepApplied += r.gossip.RepApplied
		m.gossip.GreyApplied += r.gossip.GreyApplied
		m.gossip.VerdApplied += r.gossip.VerdApplied
		m.upstream += r.upstream
		m.commit.Batches += r.commit.Batches
		m.commit.Mails += r.commit.Mails
		m.spoolFS.sum(r.spoolFS)
		m.mfsFS.sum(r.mfsFS)
		m.storeRcptsB += r.storeRcptsB
	}
	return m
}

// measure assembles the stack setups times (keeping the last), replays
// conns, the trace from index first on, for window, drains the queues,
// and checks every mailbox.
func measure(w *workloadSpec, conns []trace.Conn, first int, list *dnsbl.List, seed uint64, window time.Duration,
	traced bool, setups int) (*result, error) {
	res := &result{}
	p := &probes{}
	var st *stack
	for i := 0; i < setups; i++ {
		t := time.Now()
		s, err := buildStack(w, list, seed, p, traced)
		if err != nil {
			return nil, fmt.Errorf("building the %s stack: %w", w.name, err)
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
		if i < setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()

	d := &replayer{conns: conns, first: int64(first), targets: st.targets, traced: traced}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	res.start = now()
	res.recs = d.run(w.slots, res.start+window)
	res.windowEnd = now()
	res.exhausted = d.exhausted.Load()
	res.drained = true
	for _, n := range st.nodes {
		if !n.qm.WaitIdle(60 * time.Second) {
			res.drained = false
		}
		for _, lane := range spool.Lanes {
			if n.qm.LaneDepth(lane) != 0 {
				res.drained = false
			}
		}
	}
	res.drainEnd = now()
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.rssKB = maxRSS()

	for _, n := range st.nodes {
		s := n.srv.Stats()
		res.srv.Connections += s.Connections
		res.srv.PreTrustClosed += s.PreTrustClosed
		res.srv.Handoffs += s.Handoffs
		res.srv.EnqueueFailures += s.EnqueueFailures
		res.srv.PolicyRejected += s.PolicyRejected
		res.srv.PolicyTempfail += s.PolicyTempfail
		q := n.qm.Stats()
		res.queue.Enqueued += q.Enqueued
		res.queue.Deferred += q.Deferred
		res.shardEnq = append(res.shardEnq, q.Enqueued)
		c := n.store.Store().CommitStats()
		res.commit.Batches += c.Batches
		res.commit.Mails += c.Mails
		if traced {
			res.spoolFS.add(n.spoolFS)
			res.mfsFS.add(n.mfsFS)
		}
	}
	for _, fe := range st.fronts {
		s := fe.d.Stats()
		res.dir.Connections += s.Connections
		res.dir.PolicyRejected += s.PolicyRejected
		res.dir.PolicyTempfail += s.PolicyTempfail
		res.dir.ForwardRetries += s.ForwardRetries
		res.dir.RcptSkew += s.RcptSkew
		res.handoffP99 = max(res.handoffP99, fe.d.HandoffQuantile(0.99))
		g := fe.gossip.Stats()
		res.gossip.Exchanges += g.Exchanges
		res.gossip.RepApplied += g.RepApplied
		res.gossip.GreyApplied += g.GreyApplied
		res.gossip.VerdApplied += g.VerdApplied
	}
	res.upstream = st.bl.conn.queries.Load()
	res.spans = p.snapshot()
	p.mu.Lock()
	res.checks = append(res.checks, p.checks...)
	p.mu.Unlock()
	for _, s := range res.spans {
		if s.kind == kindStore {
			res.storeRcptsB += int64(s.bytes) * int64(s.rcpts)
		}
	}
	verify(st, res)
	return res, nil
}

// seqBox is one (mail, mailbox) delivery.
type seqBox struct {
	seq int64
	box string
}

// verify reads every mailbox of every node back and holds it against
// the replayer's acknowledgements: each acked mail must be in each of its
// mailboxes exactly once, and nothing else may be there.
func verify(st *stack, res *result) {
	stored := make(map[seqBox]int)
	for _, n := range st.nodes {
		for b := 0; b < mailboxes; b++ {
			box := fmt.Sprintf("user%04d", b)
			ids, err := n.store.List(box)
			if errors.Is(err, mailstore.ErrNotFound) {
				continue
			}
			if err != nil {
				res.readErrs++
				continue
			}
			for _, id := range ids {
				body, err := n.store.Read(box, id)
				if err != nil {
					res.readErrs++
					continue
				}
				stored[seqBox{seqOf(body), box}]++
			}
		}
	}
	acked := make(map[seqBox]bool)
	failed := make(map[int64]bool)
	for i := range res.recs {
		r := &res.recs[i]
		if r.outcome == outFailed {
			failed[r.seq] = true
		}
		if !r.acked {
			continue
		}
		whole := true
		for _, b := range r.boxes {
			k := seqBox{r.seq, b}
			acked[k] = true
			switch stored[k] {
			case 1:
			case 0:
				res.lost++
				whole = false
			default:
				res.dup++
				whole = false
			}
		}
		if whole {
			res.committed++
		}
	}
	for k, n := range stored {
		if !acked[k] && !failed[k.seq] {
			res.unacked += n
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's verdict and metrics, printed as text lines and a
// final JSON line.
type report struct {
	correct   bool
	attempted int
	failed    int
	names     []string
	metrics   map[string]metric
	notes     []string
}

func (r *report) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{value, unit}
}

// info adds a metric that is printed but not in the JSON.
func (r *report) info(name string, value float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("metric %-32s %14.6g %s", name, value, unit))
}

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Fprintln(w, string(line))
}

// tally is the client-side account of a run.
type tally struct {
	conns, hamConns, hamRefused, failedConns int
	wrongReply                               int
	failures                                 map[string]int
	outcomes                                 map[outcome]int
}

func (t *tally) add(res *result) {
	for i := range res.recs {
		r := &res.recs[i]
		t.conns++
		t.outcomes[r.outcome]++
		if r.ham {
			t.hamConns++
			if r.outcome == outRefused {
				t.hamRefused++
			}
		}
		if r.outcome == outFailed {
			t.failedConns++
			t.failures[r.failure]++
			if r.failure == failVerdict {
				t.wrongReply++
			}
		}
	}
}

// verdict fills the report's correctness fields and notes from the
// rounds.
func (rep *report) verdict(rounds []*result) tally {
	t := tally{failures: make(map[string]int), outcomes: make(map[outcome]int)}
	drained, exhausted := true, false
	var committed, lost, dup, unacked, readErrs int
	for _, res := range rounds {
		t.add(res)
		drained = drained && res.drained
		exhausted = exhausted || res.exhausted
		committed += res.committed
		lost += res.lost
		dup += res.dup
		unacked += res.unacked
		readErrs += res.readErrs
	}
	rep.attempted = max(t.conns, 1)
	rep.failed = t.failedConns + lost + dup + unacked + readErrs
	rep.correct = drained && lost == 0 && dup == 0 && unacked == 0 &&
		readErrs == 0 && t.wrongReply == 0 && t.conns > 0
	rep.notes = append(rep.notes, fmt.Sprintf(
		"conns %d: accepted %d, bounce %d, unfinished %d, refused %d, failed %d; ham %d (refused %d)",
		t.conns, t.outcomes[outAccepted], t.outcomes[outBounce], t.outcomes[outUnfinished],
		t.outcomes[outRefused], t.outcomes[outFailed], t.hamConns, t.hamRefused))
	rep.notes = append(rep.notes, fmt.Sprintf(
		"mailboxes: %d acked mails committed, %d lost, %d duplicated, %d stored unacked, %d unreadable; drained=%v",
		committed, lost, dup, unacked, readErrs, drained))
	var reasons []string
	for k := range t.failures {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		rep.notes = append(rep.notes, fmt.Sprintf("failure %q: %d", k, t.failures[k]))
	}
	if exhausted {
		rep.notes = append(rep.notes, "warning: the trace ran out before the deadline; the window is shorter")
	}
	return t
}

// latencies returns, in milliseconds, the accepted-mail latencies, the
// connection latencies, and the inbox latencies of res.
func latencies(res *result) (mail, conn, inbox []float64) {
	stores := make(map[int64][]srvSpan)
	for _, s := range res.spans {
		if s.kind == kindStore {
			stores[s.seq] = append(stores[s.seq], s)
		}
	}
	for i := range res.recs {
		r := &res.recs[i]
		conn = append(conn, ms(r.iv.len()))
		if !r.acked {
			continue
		}
		mail = append(mail, ms(r.ack-r.iv.start))
		if end, ok := inboxEnd(stores[r.seq]); ok {
			inbox = append(inbox, ms(end-r.eod))
		}
	}
	return mail, conn, inbox
}

// mailsPerSecond is acked mails committed to every mailbox per second
// of wall time from the first dial to the empty spool.
func mailsPerSecond(res *result) float64 {
	return float64(res.committed) / (res.drainEnd - res.start).Seconds()
}

func cpuPerConn(res *result) float64 {
	return float64(res.cpu.Microseconds()) / float64(max(len(res.recs), 1))
}

// medianRound returns the median over rounds of f.
func medianRound(rounds []*result, f func(*result) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}

// endToEnd computes the untraced run's metrics: rates and per-connection
// costs as the median round, latency percentiles over every round's
// samples, set-up as the median assembly, RSS as the process peak.
func endToEnd(rounds []*result, w *workloadSpec) report {
	var rep report
	t := rep.verdict(rounds)
	var mail, conn, inbox, setup []float64
	var rssKB int64
	for _, res := range rounds {
		m, c, i := latencies(res)
		mail, conn, inbox = append(mail, m...), append(conn, c...), append(inbox, i...)
		setup = append(setup, res.setup...)
		rssKB = max(rssKB, res.rssKB)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("workload %s: %d rounds; %d accepted-mail, %d connection, %d inbox samples; failed_frac %.6f, ham_refused_frac %.6f",
		w.name, len(rounds), len(mail), len(conn), len(inbox),
		float64(rep.failed)/float64(rep.attempted), ratio(float64(t.hamRefused), float64(t.hamConns))))
	perConn := func(v func(*result) float64) float64 {
		return medianRound(rounds, func(r *result) float64 { return v(r) / float64(max(len(r.recs), 1)) })
	}
	rep.add("setup_s", median(setup), "s")
	rep.add("mails_per_s", medianRound(rounds, mailsPerSecond), "1/s")
	rep.add("conns_per_s", medianRound(rounds, func(r *result) float64 {
		return float64(len(r.recs)) / (r.windowEnd - r.start).Seconds()
	}), "1/s")
	rep.add("mail_latency_p99_ms", quantile(mail, 0.99), "ms")
	rep.add("conn_latency_p99_ms", quantile(conn, 0.99), "ms")
	// Printed but left out of the JSON: on sinkhole, whose 8 slots
	// leave the CPU mostly idle, these sub-millisecond figures follow
	// how fast the host wakes an idle virtual CPU, and across ten seeds
	// they spread by up to 0.24 of their median; the inbox tail spread
	// by 0.22 on its ~8000 mails.
	rep.info("mail_latency_p50_ms", quantile(mail, 0.5), "ms")
	rep.info("conn_latency_p50_ms", quantile(conn, 0.5), "ms")
	rep.info("inbox_ms_p50", quantile(inbox, 0.5), "ms")
	rep.info("inbox_ms_p99", quantile(inbox, 0.99), "ms")
	rep.info("cpu_us_per_conn", medianRound(rounds, cpuPerConn), "us")
	rep.add("allocs_per_conn", perConn(func(r *result) float64 { return float64(r.mallocs) }), "count")
	rep.add("alloc_kb_per_conn", perConn(func(r *result) float64 { return float64(r.allocBytes) / 1024 }), "KiB")
	rep.add("rss_max_mb", float64(rssKB)/1024, "MiB")
	return rep
}
