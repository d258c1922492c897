package director

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// settings collects the director's tunables.
type settings struct {
	hostname       string
	backends       []backendSpec
	pol            *policy.ServerPolicy
	validateRcpt   func(string) bool
	registry       *metrics.Registry
	events         *eventlog.Log
	idleTimeout    time.Duration
	forwardTimeout time.Duration
	vnodes         int
	cooldown       time.Duration
	mtrace         *trace.MessageRecorder
}

type backendSpec struct {
	name string
	addr string
}

// Option configures a director Server.
type Option func(*settings)

// WithHostname sets the banner hostname (default "director.local").
func WithHostname(h string) Option {
	return func(s *settings) { s.hostname = h }
}

// WithBackend registers one delivery shard under a stable name; the
// name — not the address — is hashed onto the ring, so a shard can move
// without remapping recipients. Repeat for each shard.
func WithBackend(name, addr string) Option {
	return func(s *settings) { s.backends = append(s.backends, backendSpec{name: name, addr: addr}) }
}

// WithPolicy installs the pre-trust policy adapter: connect verdicts
// (with DNSBL scan), MAIL/RCPT checks, and bounce/reject reputation
// feedback. Nil (the default) admits everything — the director still
// validates recipients and forwards.
func WithPolicy(p *policy.ServerPolicy) Option {
	return func(s *settings) { s.pol = p }
}

// WithValidateRcpt installs the recipient-existence check (the access
// database). nil accepts every recipient.
func WithValidateRcpt(f func(string) bool) Option {
	return func(s *settings) { s.validateRcpt = f }
}

// WithRegistry directs the director's metrics into r (default private).
func WithRegistry(r *metrics.Registry) Option {
	return func(s *settings) { s.registry = r }
}

// WithEventLog emits the client-facing server's smtpd.conn and
// smtpd.policy events and the director's own director.forward /
// director.skew / director.shard events into log (default off).
func WithEventLog(log *eventlog.Log) Option {
	return func(s *settings) { s.events = log }
}

// WithIdleTimeout bounds client inactivity per read (default 60s).
func WithIdleTimeout(d time.Duration) Option {
	return func(s *settings) { s.idleTimeout = d }
}

// WithForwardTimeout bounds the back-end dial and each replay command
// (default 10s).
func WithForwardTimeout(d time.Duration) Option {
	return func(s *settings) { s.forwardTimeout = d }
}

// WithVnodes sets virtual nodes per shard on the ring (default 64).
func WithVnodes(n int) Option {
	return func(s *settings) { s.vnodes = n }
}

// WithCooldown sets how long a shard that failed a forward is skipped
// before being probed again (default 2s).
func WithCooldown(d time.Duration) Option {
	return func(s *settings) { s.cooldown = d }
}

// WithMessageTracer enables message-lifecycle tracing at the director:
// the edge of the tier mints each sampled connection's trace id (the
// client-facing server records its "smtp" span per mail), the director
// records a "pretrust" span per envelope replay with a "forward" span
// per shard attempt under it, and propagates the context to
// XTRACE-capable shards as a MAIL parameter so their spans stitch into
// the same trace. Nil disables (the default); sampled-out connections
// carry the zero context and cost no allocations.
func WithMessageTracer(rec *trace.MessageRecorder) Option {
	return func(s *settings) { s.mtrace = rec }
}

// Stats is a snapshot of a director's counters: the client-facing
// server's (connections, policy verdicts, 550s, handoffs, pre-trust
// closes) plus the forwarding sink's.
type Stats struct {
	smtpserver.Stats
	MailsForwarded int64 // envelopes replayed to a shard successfully
	MailsFailed    int64 // envelopes tempfailed 451 (every candidate down)
	MailsRefused   int64 // envelopes 554'd (shards refused every recipient)
	ForwardRetries int64 // pooled-connection retries + candidate failovers
	RcptSkew       int64 // recipients the director admitted but a shard refused
}

// Server is one director front end: an smtpserver (the paper's hybrid
// fork-after-trust server) whose enqueue sink replays each accepted
// envelope to the delivery shards owning its recipients. Create with
// New, start with Serve, stop with Close.
type Server struct {
	cfg  settings
	srv  *smtpserver.Server
	ring *Ring
	bk   map[string]*backend

	reg            *metrics.Registry
	mailsForwarded *metrics.Counter
	mailsFailed    *metrics.Counter
	mailsRefused   *metrics.Counter
	forwardRetries *metrics.Counter
	rcptSkew       *metrics.Counter
	shardDown      *metrics.Counter
	traceStitched  *metrics.Counter
	handoff        *metrics.Histogram // per-envelope replay wall time
	perShard       map[string]*metrics.Counter
	forwardSec     map[string]*metrics.Histogram // per-shard replay wall time
}

// The forwarding sink's failures carry the reply the client gets at
// end of data; smtpserver writes it verbatim.
var (
	errShardsDown = &smtp.UnexpectedReplyError{Op: "forward",
		Reply: smtp.Reply{Code: 451, Text: "delivery shards unavailable, try again later"}}
	// Every shard answered and cleanly refused every recipient: a
	// permanent recipient problem, not an outage. Acking would drop the
	// mail silently and a retry cannot help — fail the transaction for
	// good.
	errAllRefused = &smtp.UnexpectedReplyError{Op: "forward",
		Reply: smtp.Reply{Code: 554, Text: "all recipients refused by delivery shards"}}
)

// New builds a director over at least one backend shard.
func New(opts ...Option) (*Server, error) {
	st := settings{
		hostname:       "director.local",
		idleTimeout:    60 * time.Second,
		forwardTimeout: 10 * time.Second,
		cooldown:       2 * time.Second,
	}
	for _, o := range opts {
		o(&st)
	}
	if len(st.backends) == 0 {
		return nil, errors.New("director: at least one backend is required")
	}
	reg := st.registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:            st,
		ring:           NewRing(st.vnodes),
		bk:             make(map[string]*backend, len(st.backends)),
		reg:            reg,
		mailsForwarded: reg.Counter("director_mails_forwarded_total"),
		mailsFailed:    reg.Counter("director_mails_failed_total"),
		mailsRefused:   reg.Counter("director_mails_refused_total"),
		forwardRetries: reg.Counter("director_forward_retries_total"),
		rcptSkew:       reg.Counter("director_rcpt_skew_total"),
		shardDown:      reg.Counter("director_shard_down_total"),
		traceStitched:  reg.Counter("director_trace_stitched_total"),
		handoff:        reg.Histogram("director_handoff_seconds", metrics.LatencyBounds()),
		perShard:       make(map[string]*metrics.Counter, len(st.backends)),
		forwardSec:     make(map[string]*metrics.Histogram, len(st.backends)),
	}
	for _, spec := range st.backends {
		if _, dup := s.bk[spec.name]; dup {
			return nil, fmt.Errorf("director: duplicate backend %q", spec.name)
		}
		s.bk[spec.name] = &backend{name: spec.name, addr: spec.addr}
		s.ring.Add(spec.name)
		s.perShard[spec.name] = reg.Counter("director_shard_forwarded_total", "shard", spec.name)
		s.forwardSec[spec.name] = reg.Histogram("director_forward_seconds", metrics.LatencyBounds(), "shard", spec.name)
	}
	srv, err := smtpserver.New(nil,
		smtpserver.WithHostname(st.hostname),
		smtpserver.WithPolicy(st.pol),
		smtpserver.WithValidateRcpt(st.validateRcpt),
		smtpserver.WithIdleTimeout(st.idleTimeout),
		smtpserver.WithRegistry(reg),
		smtpserver.WithEventLog(st.events),
		smtpserver.WithMessageTracer(st.mtrace),
		smtpserver.WithEnqueueTraced(s.forward),
	)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Registry returns the registry holding the director's metrics, the
// client-facing server's smtpd_* series included.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Ring returns the recipient ring, for observability and tests.
func (s *Server) Ring() *Ring { return s.ring }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Stats:          s.srv.Stats(),
		MailsForwarded: s.mailsForwarded.Value(),
		MailsFailed:    s.mailsFailed.Value(),
		MailsRefused:   s.mailsRefused.Value(),
		ForwardRetries: s.forwardRetries.Value(),
		RcptSkew:       s.rcptSkew.Value(),
	}
}

// HandoffQuantile returns the q-quantile of envelope replay wall time
// in seconds.
func (s *Server) HandoffQuantile(q float64) float64 { return s.handoff.Quantile(q) }

// Serve accepts client connections on ln until Close. It owns ln.
func (s *Server) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops accepting, closes live client connections, waits for the
// server's goroutines, and drains the back-end connection pools.
func (s *Server) Close() {
	s.srv.Close() //nolint:errcheck // a second Close only reports it
	for _, b := range s.bk {
		b.closeIdle()
	}
}

// forward is the server's enqueue sink: it fans one accepted envelope
// out to the shards owning its recipients (usually one). The whole
// replay is timed as the handoff — the network-stretched equivalent of
// the in-process worker handoff — and traced as the "pretrust" span
// under the mail's smtp span, parenting one "forward" span per shard
// attempt. A group that found no live shard fails the mail 451; shards
// that cleanly refused every recipient (config skew) fail it 554.
func (s *Server) forward(sender string, rcpts []string, data []byte, tc trace.Context) (string, error) {
	start := time.Now()
	psp := s.cfg.mtrace.NewSpan(tc)
	accepted, ok := 0, true
	for shard, group := range s.groupByShard(rcpts) {
		n, groupOK := s.forwardGroup(shard, sender, group, data, psp)
		accepted += n
		if !groupOK {
			ok = false
		}
	}
	end := time.Now()
	s.handoff.ObserveDuration(end.Sub(start))
	s.cfg.mtrace.FinishAt(psp, trace.MStagePretrust, start, end, "director")
	switch {
	case !ok:
		s.mailsFailed.Inc()
		return "", errShardsDown
	case accepted == 0:
		s.mailsRefused.Inc()
		return "", errAllRefused
	}
	s.mailsForwarded.Inc()
	return "", nil
}

// groupByShard buckets recipients by owning shard.
func (s *Server) groupByShard(rcpts []string) map[string][]string {
	groups := make(map[string][]string, 1)
	for _, r := range rcpts {
		shard := s.ring.Pick(r)
		groups[shard] = append(groups[shard], r)
	}
	return groups
}

// forwardGroup walks the ring candidates for one recipient group until
// a shard takes the mail. Down shards are skipped inside their
// cooldown unless every candidate is down — then each is probed anyway
// rather than failing mail on a stale latch.
func (s *Server) forwardGroup(owner, sender string, rcpts []string, data []byte, tc trace.Context) (int, bool) {
	candidates := s.ring.Candidates(rcpts[0], len(s.ring.Nodes()))
	now := time.Now()
	// Pass 0 probes the candidates whose cooldown is clear. If every
	// candidate was latched down before this call, pass 1 probes them
	// all anyway — better to pay a probe than tempfail mail on a stale
	// latch. A shard that failed a pass-0 probe is NOT re-probed.
	probed := 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 && probed > 0 {
			break
		}
		for i, name := range candidates {
			b := s.bk[name]
			if b == nil || (pass == 0 && b.down(now)) {
				continue
			}
			probed++
			if i > 0 {
				s.forwardRetries.Inc()
			}
			// The forward span's context crosses the wire as XTRACE, so
			// the shard's own spans parent under this replay.
			fsp := s.cfg.mtrace.NewSpan(tc)
			probeStart := time.Now()
			accepted, retried, traced, err := b.forward(s.cfg.hostname, s.cfg.forwardTimeout, sender, rcpts, data, fsp)
			if retried {
				s.forwardRetries.Inc()
			}
			if err == nil {
				b.markUp()
				s.perShard[name].Inc()
				s.forwardSec[name].ObserveDuration(time.Since(probeStart))
				s.cfg.mtrace.FinishAt(fsp, trace.MStageForward, probeStart, time.Now(), name)
				if traced {
					// The shard advertised XTRACE and took the context:
					// its spans will stitch into this trace.
					s.traceStitched.Inc()
				}
				if accepted < len(rcpts) {
					// The shard refused recipients the director admitted:
					// an access-config skew between the tiers. The
					// accepted subset is already delivered, so retrying
					// another shard would duplicate it — count the skew
					// and move on. Keep the tiers' -domain/mailbox
					// config in lockstep to keep this at zero.
					s.rcptSkew.Add(int64(len(rcpts) - accepted))
					s.cfg.events.Warn("director.skew", 0,
						eventlog.Str("shard", name),
						eventlog.Int("refused", int64(len(rcpts)-accepted)),
					)
				}
				s.cfg.events.Debug("director.forward", 0,
					eventlog.Str("shard", name),
					eventlog.Int("rcpts", int64(len(rcpts))),
				)
				return accepted, true
			}
			b.markDown(time.Now(), s.cfg.cooldown)
			s.shardDown.Inc()
			s.cfg.events.Warn("director.shard", 0,
				eventlog.Str("shard", name),
				eventlog.Str("err", err.Error()),
			)
		}
	}
	return 0, false
}
