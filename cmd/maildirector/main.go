// Command maildirector runs one front-end director node: it terminates
// client TCP, runs the whole pre-trust phase (policy verdict, DNSBL
// score, greylist) locally, and replays accepted envelopes to back-end
// delivery shards (cmd/smtpd instances) chosen by consistent-hashed
// recipient. Directors gossip their pre-trust state — reputation
// deltas, greylist tuples, DNSBL verdicts — so what one front end
// learns, all of them enforce.
//
// Quickstart, 2 front ends × 2 delivery shards (see README.md):
//
//	smtpd -addr :2501 -root /tmp/shard-a &
//	smtpd -addr :2502 -root /tmp/shard-b &
//	maildirector -addr :2525 -gossip-addr :7946 -peers 127.0.0.1:7947 \
//	    -backend shard-a=127.0.0.1:2501 -backend shard-b=127.0.0.1:2502 &
//	maildirector -addr :2526 -gossip-addr :7947 -peers 127.0.0.1:7946 \
//	    -backend shard-a=127.0.0.1:2501 -backend shard-b=127.0.0.1:2502 &
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/director"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/trace"
)

// backendFlags collects repeated -backend name=addr pairs.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }
func (b *backendFlags) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	var backends backendFlags
	flag.Var(&backends, "backend", "delivery shard as name=host:port (repeatable; name is hashed onto the ring)")
	var (
		listen     = flag.String("addr", "127.0.0.1:2525", "SMTP listen address")
		adminAddr  = flag.String("admin", "", "serve /metrics, /debug/vars, and /events on this address (empty disables)")
		hostname   = flag.String("hostname", "director.local", "banner hostname")
		domain     = flag.String("domain", "", "accept recipients at this domain only (empty accepts all)")
		vnodes     = flag.Int("vnodes", 64, "virtual nodes per shard on the recipient ring")
		cooldown   = flag.Duration("cooldown", 2*time.Second, "skip a failed shard for this long before re-probing")
		fwdTimeout = flag.Duration("forward-timeout", 10*time.Second, "back-end dial and replay command timeout")
		gossipAddr = flag.String("gossip-addr", "", "listen for peer anti-entropy exchanges on this address (empty disables)")
		peers      = flag.String("peers", "", "comma-separated peer gossip addresses to dial")
		gossipIvl  = flag.Duration("gossip-interval", time.Second, "anti-entropy exchange period")
		policyOn   = flag.Bool("policy", true, "run the pre-trust policy engine (rate limits, greylist, reputation)")
		greyRetry  = flag.Duration("grey-retry", time.Minute, "greylist minimum retry window (0 disables greylisting)")
		connRate   = flag.Float64("conn-rate", 2, "connections/sec admitted per client IP (0 disables rate limiting)")
		dnsblAddr  = flag.String("dnsbl", "", "comma-separated DNSBL replica addresses; empty disables")
		dnsblZone  = flag.String("dnsbl-zone", "bl.example.org", "DNSBL zone name")
		statsSec   = flag.Int("stats", 10, "stats period in seconds (0 disables)")
		logLevel   = flag.String("log", "info", "echo events at or above this level to stderr")

		traceSample = flag.Int("trace-sample", 0, "message-lifecycle tracing: mint a trace id for 1 in N client connections and propagate it to XTRACE-capable shards (0 disables; 1 traces everything); spans serve at /trace/{id} on -admin")
		nodeName    = flag.String("node", "", "node name stamped on message-trace spans (default: -hostname)")
	)
	flag.Parse()

	if len(backends) == 0 {
		log.Fatal("maildirector: at least one -backend name=addr is required")
	}

	reg := metrics.Default()
	stderrLevel, err := eventlog.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("maildirector: -log: %v", err)
	}
	evOpts := []eventlog.Option{eventlog.WithLevel(eventlog.LevelDebug)}
	if stderrLevel < eventlog.LevelOff {
		evOpts = append(evOpts, eventlog.WithSink(eventlog.NewTextSink(os.Stderr, stderrLevel)))
	}
	events := eventlog.New(evOpts...)

	// Node-local pre-trust stores, exposed to gossip through the
	// transport-agnostic sync contracts.
	rep := policy.NewReputation(policy.ReputationConfig{})
	var grey *policy.Greylist
	if *greyRetry > 0 {
		grey = policy.NewGreylist(policy.GreyConfig{MinRetry: *greyRetry})
	}

	var verd *director.Verdicts
	var scorer *policy.Scorer
	if *dnsblAddr != "" {
		client := dnsbl.New(*dnsblZone,
			dnsbl.WithRegistry(reg),
			dnsbl.WithEventLog(events),
			dnsbl.WithUpstreams(strings.Split(*dnsblAddr, ",")...),
			dnsbl.WithPolicy(dnsbl.CachePrefix))
		defer client.Close()
		// The gossip-shared verdict cache sits in front of the client:
		// a verdict any peer paid for is served locally.
		verd = director.NewVerdicts(client)
		scorer = policy.NewScorer(
			policy.WithLists(policy.List{Name: *dnsblZone, Resolver: verd, Weight: 1}),
			policy.WithThreshold(1),
			policy.WithScorerRegistry(reg),
		)
	}

	var pol *policy.ServerPolicy
	if *policyOn {
		pOpts := []policy.Option{policy.WithReputationStore(rep)}
		if grey != nil {
			pOpts = append(pOpts, policy.WithGreylistStore(grey))
		}
		if *connRate > 0 {
			pOpts = append(pOpts, policy.WithRate(policy.RateConfig{
				ConnPerSec: *connRate,
				ConnBurst:  5 * *connRate,
			}))
		}
		if scorer != nil {
			pOpts = append(pOpts, policy.WithDNSBLReject(1))
		}
		// WithClock(time.Now) stamps store entries with absolute wall
		// time, so deltas gossiped to peers decay on a shared timeline.
		pol = policy.NewServerPolicy(policy.New(pOpts...), scorer,
			policy.WithRegistry(reg), policy.WithEventLog(events),
			policy.WithClock(time.Now))
	}

	var mtrace *trace.MessageRecorder
	if *traceSample > 0 {
		node := *nodeName
		if node == "" {
			node = *hostname
		}
		mtrace = trace.NewMessageRecorder(node, 65536, *traceSample)
	}

	dOpts := []director.Option{
		director.WithHostname(*hostname),
		director.WithVnodes(*vnodes),
		director.WithCooldown(*cooldown),
		director.WithForwardTimeout(*fwdTimeout),
		director.WithRegistry(reg),
		director.WithEventLog(events),
	}
	if mtrace != nil {
		dOpts = append(dOpts, director.WithMessageTracer(mtrace))
	}
	for _, spec := range backends {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("maildirector: -backend %q is not name=addr", spec)
		}
		dOpts = append(dOpts, director.WithBackend(name, addr))
	}
	if pol != nil {
		dOpts = append(dOpts, director.WithPolicy(pol))
	}
	if *domain != "" {
		suffix := "@" + *domain
		dOpts = append(dOpts, director.WithValidateRcpt(func(a string) bool {
			return strings.HasSuffix(a, suffix)
		}))
	}
	d, err := director.New(dOpts...)
	if err != nil {
		log.Fatalf("maildirector: %v", err)
	}

	var gossip *director.Gossip
	if *gossipAddr != "" {
		gOpts := []director.GossipOption{
			director.WithGossipName(*hostname),
			director.WithInterval(*gossipIvl),
			director.WithReputationSync(rep),
			director.WithGossipEventLog(events),
		}
		if grey != nil {
			gOpts = append(gOpts, director.WithGreylistSync(grey))
		}
		if verd != nil {
			gOpts = append(gOpts, director.WithVerdicts(verd))
		}
		if *peers != "" {
			gOpts = append(gOpts, director.WithPeers(strings.Split(*peers, ",")...))
		}
		gossip = director.NewGossip(gOpts...)
		gln, err := net.Listen("tcp", *gossipAddr)
		if err != nil {
			log.Fatalf("maildirector: gossip listen: %v", err)
		}
		go gossip.Serve(gln)
		if *peers != "" {
			gossip.Start()
		}
		defer gossip.Close()
		events.Info("director.start", 0,
			eventlog.Str("component", "gossip"), eventlog.Str("addr", gln.Addr().String()))
	}

	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatalf("maildirector: admin listen: %v", err)
		}
		adminOpts := []admin.HandlerOption{admin.WithEvents(events)}
		if mtrace != nil {
			adminOpts = append(adminOpts, admin.WithTrace(mtrace))
		}
		handler := admin.NewHandler(reg, nil, adminOpts...)
		go http.Serve(adminLn, handler) //nolint:errcheck // dies with the process
		events.Info("director.start", 0,
			eventlog.Str("component", "admin"), eventlog.Str("addr", adminLn.Addr().String()))
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("maildirector: %v", err)
	}
	go d.Serve(ln)
	events.Info("director.start", 0,
		eventlog.Str("component", "director"),
		eventlog.Str("addr", *listen),
		eventlog.Str("shards", backends.String()),
	)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsSec > 0 {
		ticker := time.NewTicker(time.Duration(*statsSec) * time.Second)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			logStats(d, gossip)
		case <-sigCh:
			events.Info("director.stop", 0, eventlog.Str("component", "director"))
			d.Close()
			logStats(d, gossip)
			return
		}
	}
}

// logStats dumps the director's counters and, when gossiping, the
// replication counters.
func logStats(d *director.Server, gossip *director.Gossip) {
	s := d.Stats()
	t := metrics.NewTable("counter", "value")
	t.AddRow("connections", s.Connections)
	t.AddRow("policy rejected (554)", s.PolicyRejected)
	t.AddRow("policy tempfailed (421)", s.PolicyTempfail)
	t.AddRow("mails forwarded", s.MailsForwarded)
	t.AddRow("mails tempfailed (451)", s.MailsFailed)
	t.AddRow("mails refused (554)", s.MailsRefused)
	t.AddRow("forward retries", s.ForwardRetries)
	t.AddRow("rcpt 550", s.RcptRejected)
	t.AddRow("rcpt skew (shard refused)", s.RcptSkew)
	t.AddRow("pre-trust closed", s.PreTrustClosed)
	t.AddRow("handoff p50 (ms)", 1000*d.HandoffQuantile(0.5))
	t.AddRow("handoff p99 (ms)", 1000*d.HandoffQuantile(0.99))
	if gossip != nil {
		g := gossip.Stats()
		t.AddRow("gossip exchanges", g.Exchanges)
		t.AddRow("gossip served", g.Served)
		t.AddRow("gossip failures", g.Failures)
		t.AddRow("entries merged (rep)", g.RepApplied)
		t.AddRow("entries merged (grey)", g.GreyApplied)
		t.AddRow("entries merged (verdicts)", g.VerdApplied)
	}
	fmt.Fprint(log.Writer(), t.String())
}
