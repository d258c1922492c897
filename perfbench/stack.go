package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/bounce"
	"repro/internal/delivery"
	"repro/internal/director"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/policy"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/spool"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const (
	domain    = "dept.example.edu"
	mailboxes = 400
)

// newDB builds the access database cmd/smtpd builds: the populated
// local users plus the postmaster alias.
func newDB() (*access.DB, error) {
	db := access.NewDB(domain)
	if err := access.Populate(db, domain, mailboxes); err != nil {
		return nil, err
	}
	if err := db.AddAlias("postmaster@"+domain, fmt.Sprintf("user%04d@%s", 0, domain)); err != nil {
		return nil, err
	}
	return db, nil
}

// smtpdEvents builds the event log cmd/smtpd runs by default: an info
// ring with its default sampling, observed by the telemetry tracker.
// Nothing is echoed to stderr (smtpd -log off).
func smtpdEvents(reg *metrics.Registry) *eventlog.Log {
	tracker := telemetry.New()
	tracker.Register(reg)
	return eventlog.New(
		eventlog.WithLevel(eventlog.LevelInfo),
		eventlog.WithCapacity(4096),
		eventlog.WithObserver(tracker),
		eventlog.WithSampling("dnsbl.lookup", 16),
		eventlog.WithSampling("smtpd.policy", 16),
	)
}

// dnsblClient builds the resolver stack cmd/smtpd -dnsbl builds.
func dnsblClient(upstream string, reg *metrics.Registry, events *eventlog.Log) *dnsbl.Client {
	return dnsbl.New(zone,
		dnsbl.WithRegistry(reg),
		dnsbl.WithEventLog(events),
		dnsbl.WithUpstreams(upstream),
		dnsbl.WithHedge(20*time.Millisecond),
		dnsbl.WithStale(time.Hour),
		dnsbl.WithNegativeTTL(5*time.Second),
		dnsbl.WithPolicy(dnsbl.CachePrefix))
}

// scorer builds the DNSBL scorer over r, wrapped by the probes when
// the run is traced.
func scorer(r dnsbl.Resolver, p *probes, traced bool, reg *metrics.Registry) *policy.Scorer {
	if traced {
		r = resolverProbe{p: p, next: r}
	}
	return policy.NewScorer(
		policy.WithLists(policy.List{Name: zone, Resolver: r, Weight: 1}),
		policy.WithThreshold(1),
		policy.WithScorerRegistry(reg),
	)
}

// node is one mail server as cmd/smtpd -policy -dnsbl -mfs-sync builds
// it: the hybrid smtpserver over the access DB, a queue.Manager over a
// synced spool, and a delivery.Agent into a WAL-synced MFS, each store
// on its own newDisk. Shards of the cluster are nodes without a policy.
type node struct {
	index   int
	client  *dnsbl.Client // nil on shards
	srv     *smtpserver.Server
	qm      *queue.Manager
	store   *mailstore.MFS
	spoolFS *fsMeter // nil when untraced
	mfsFS   *fsMeter // nil when untraced
	addr    string
	served  chan struct{}
}

// startNode starts a node. With a blacklist address it runs
// smtpd -policy -dnsbl with -grey-retry 0 -conn-rate 0: a replayer never
// retries, so greylisting and the per-IP rate limit would refuse ham a
// real MTA would deliver on its second try.
func startNode(index int, blacklist string, p *probes, traced bool) (*node, error) {
	reg := metrics.NewRegistry()
	reg.SetLabelValueLimit(64)
	events := smtpdEvents(reg)
	db, err := newDB()
	if err != nil {
		return nil, err
	}
	n := &node{index: index, served: make(chan struct{})}
	var spoolFS, mfsFS fsim.FS = newDisk(), newDisk()
	if traced {
		n.spoolFS = &fsMeter{FS: spoolFS, p: p, node: index}
		n.mfsFS = &fsMeter{FS: mfsFS, node: index}
		spoolFS, mfsFS = n.spoolFS, n.mfsFS
	}
	n.store, err = mailstore.NewMFS(mfsFS, "mfs", mfs.WithSync(true))
	if err != nil {
		return nil, err
	}
	agent := delivery.NewAgent(db, storeProbe{Store: n.store, p: p, node: index},
		delivery.WithRegistry(reg), delivery.WithEventLog(events))
	var deliverer queue.Deliverer = agent
	if traced {
		deliverer = deliverProbe{p: p, node: index, next: agent}
	}
	n.qm, err = queue.NewManager(queue.Config{
		Deliverer:   deliverer,
		Store:       spool.New(spoolFS, "queue"),
		ActiveLimit: 8,
		MaxAttempts: 3,
		Registry:    reg,
		Events:      events,
		Bounce:      bounce.New("mx." + domain).Synthesize,
	})
	if err != nil {
		n.store.Close()
		return nil, err
	}
	enqueue := smtpserver.Enqueue(n.qm.Enqueue)
	validate := db.ValidBytes
	if traced {
		enqueue = p.enqueue(index, enqueue)
		validate = p.validateBytes(validate)
	}
	opts := []smtpserver.Option{
		smtpserver.WithHostname("mx." + domain),
		smtpserver.WithArchitecture(smtpserver.Hybrid),
		smtpserver.WithMaxWorkers(100),
		smtpserver.WithValidateRcpt(db.Valid),
		smtpserver.WithValidateRcptBytes(validate),
		smtpserver.WithRegistry(reg),
		smtpserver.WithSpans(trace.NewSpanRecorder(65536)),
		smtpserver.WithEventLog(events),
	}
	if blacklist != "" {
		n.client = dnsblClient(blacklist, reg, events)
		pol := policy.NewServerPolicy(
			policy.New(policy.WithReputation(policy.ReputationConfig{}), policy.WithDNSBLReject(1)),
			scorer(n.client, p, traced, reg),
			policy.WithRegistry(reg), policy.WithEventLog(events))
		opts = append(opts, smtpserver.WithPolicy(pol))
	}
	n.srv, err = smtpserver.New(enqueue, opts...)
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		n.qm.Close()
		n.store.Close()
		if n.client != nil {
			n.client.Close()
		}
		return nil, err
	}
	n.addr = ln.Addr().String()
	go func() {
		defer close(n.served)
		n.srv.Serve(ln) //nolint:errcheck // returns on Close
	}()
	return n, nil
}

func (n *node) close() {
	n.srv.Close()
	<-n.served
	n.qm.Close()
	n.store.Close()
	if n.client != nil {
		n.client.Close()
	}
}

// frontEnd is one director of the cluster with its node-local
// pre-trust state and gossip endpoint, wired as cmd/maildirector wires
// them: reputation plus DNSBL reject through the gossip-shared verdict
// cache over a prefix-caching dnsbl.Client.
type frontEnd struct {
	d       *director.Server
	addr    string
	client  *dnsbl.Client
	gossip  *director.Gossip
	ln, gln net.Listener
	serving sync.WaitGroup // the director and gossip accept loops
}

// close stops the front end. The listeners are closed here as well:
// Serve records its listener only once its goroutine runs, and a stack
// built only to time set-up is closed at once.
func (fe *frontEnd) close() {
	fe.gossip.Close()
	fe.d.Close()
	fe.ln.Close()
	fe.gln.Close()
	fe.serving.Wait()
	fe.client.Close()
}

// stack is one assembled system under test.
type stack struct {
	bl     *blacklist
	nodes  []*node     // the single node, or the cluster's shards
	fronts []*frontEnd // cluster only
	// targets are the addresses client slot i dials (slot i % len).
	targets []string
}

// buildStack assembles the workload's system on fresh stores.
func buildStack(w *workloadSpec, list *dnsbl.List, seed uint64, p *probes, traced bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.bl, err = startBlacklist(list, w.latency, seed); err != nil {
		return st, err
	}
	if !w.cluster {
		n, err := startNode(0, st.bl.addr(), p, traced)
		if err != nil {
			return st, err
		}
		st.nodes = []*node{n}
		st.targets = []string{n.addr}
		return st, nil
	}

	for i := 0; i < 2; i++ {
		n, err := startNode(i, "", p, traced)
		if err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, n)
	}
	// Gossip listeners first, so each front end can name its peer.
	glns := make([]net.Listener, 2)
	for i := range glns {
		if glns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range glns[:i] {
				ln.Close()
			}
			return st, err
		}
	}
	for i := 0; i < 2; i++ {
		fe, err := startFrontEnd(i, st, glns[i], glns[1-i].Addr().String(), p, traced)
		if err != nil {
			for _, ln := range glns[i:] {
				ln.Close()
			}
			return st, err
		}
		st.fronts = append(st.fronts, fe)
		st.targets = append(st.targets, fe.addr)
	}
	return st, nil
}

func startFrontEnd(i int, st *stack, gln net.Listener, peer string, p *probes, traced bool) (*frontEnd, error) {
	reg := metrics.NewRegistry()
	events := eventlog.New(eventlog.WithLevel(eventlog.LevelDebug))
	db, err := newDB()
	if err != nil {
		return nil, err
	}
	validate := db.Valid
	if traced {
		validate = p.validate(validate)
	}
	name := fmt.Sprintf("director%d", i)
	fe := &frontEnd{client: dnsblClient(st.bl.addr(), reg, events)}
	verd := director.NewVerdicts(fe.client)
	rep := policy.NewReputation(policy.ReputationConfig{})
	pol := policy.NewServerPolicy(
		policy.New(policy.WithReputationStore(rep), policy.WithDNSBLReject(1)),
		scorer(verd, p, traced, reg),
		policy.WithRegistry(reg), policy.WithEventLog(events), policy.WithClock(time.Now))
	opts := []director.Option{
		director.WithHostname(name + "." + domain),
		director.WithPolicy(pol),
		director.WithValidateRcpt(validate),
		director.WithRegistry(reg),
		director.WithEventLog(events),
	}
	for j, n := range st.nodes {
		opts = append(opts, director.WithBackend(fmt.Sprintf("shard%d", j), n.addr))
	}
	fe.d, err = director.New(opts...)
	if err != nil {
		fe.client.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fe.client.Close()
		return nil, err
	}
	fe.ln, fe.gln, fe.addr = ln, gln, ln.Addr().String()
	fe.serving.Add(2)
	go func() {
		defer fe.serving.Done()
		fe.d.Serve(ln)
	}()
	fe.gossip = director.NewGossip(
		director.WithGossipName(name),
		director.WithInterval(time.Second),
		director.WithReputationSync(rep),
		director.WithVerdicts(verd),
		director.WithPeers(peer),
		director.WithGossipEventLog(events),
	)
	go func() {
		defer fe.serving.Done()
		fe.gossip.Serve(gln)
	}()
	fe.gossip.Start()
	return fe, nil
}

// close stops every component, front to back.
func (st *stack) close() {
	for _, fe := range st.fronts {
		fe.close()
	}
	for _, n := range st.nodes {
		n.close()
	}
	if st.bl != nil {
		st.bl.close()
	}
}
