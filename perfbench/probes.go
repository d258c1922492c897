package main

import (
	"bytes"
	"context"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/queue"
	"repro/internal/smtpserver"
)

// epoch is the zero of run time; every span instant is time since it,
// read from the monotonic clock.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// seqHeader opens every body the replayer sends, so each layer that sees
// the message bytes can name the mail it is working on.
const seqHeader = "X-Bench-Seq: "

// seqOf returns the replayer's sequence number carried in a body, or -1.
func seqOf(body []byte) int64 {
	head := body
	if len(head) > 512 {
		head = head[:512]
	}
	i := bytes.Index(head, []byte(seqHeader))
	if i < 0 {
		return -1
	}
	rest := head[i+len(seqHeader):]
	j := bytes.IndexByte(rest, '\r')
	if j < 0 {
		return -1
	}
	n, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// spanKind names the layer seam a server-side span was recorded at.
type spanKind uint8

const (
	kindEnqueue spanKind = iota // smtpserver → queue Enqueue call
	kindDeliver                 // queue → delivery Deliverer call
	kindStore                   // delivery → mailstore Store.Deliver call
	kindSpool                   // spool file life: Create to Close
	kindDNSBL                   // policy → dnsbl Resolver.Lookup call
)

var kindNames = [...]string{"enqueue", "deliver", "store", "spool", "dnsbl"}

// srvSpan is one call observed at a public seam of the program.
type srvSpan struct {
	kind  spanKind
	node  int    // index of the node (shard) that made the call
	seq   int64  // replayer sequence number of the mail, -1 if unknown
	id    string // queue id, where the seam knows it
	key   uint32 // dnsbl: the looked-up client address
	rcpts int    // store: mailboxes written
	bytes int    // store: body length
	iv    interval
}

// probes collects what the seam wrappers observe. Spans are kept in
// memory and written out when the run ends. The store wrapper records
// in every run (inbox latency needs it); the others are installed only
// in traced runs.
type probes struct {
	mu     sync.Mutex
	spans  []srvSpan
	checks []time.Duration // access-database lookups
}

func (p *probes) add(s srvSpan) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (p *probes) snapshot() []srvSpan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]srvSpan(nil), p.spans...)
}

// enqueue wraps the smtpserver Enqueue func.
func (p *probes) enqueue(node int, next smtpserver.Enqueue) smtpserver.Enqueue {
	return func(sender string, rcpts []string, data []byte) (string, error) {
		start := now()
		id, err := next(sender, rcpts, data)
		p.add(srvSpan{kind: kindEnqueue, node: node, seq: seqOf(data), id: id, iv: interval{start, now()}})
		return id, err
	}
}

// deliverProbe wraps the queue's Deliverer.
type deliverProbe struct {
	p    *probes
	node int
	next queue.Deliverer
}

func (d deliverProbe) Deliver(item *queue.Item) error {
	start := now()
	err := d.next.Deliver(item)
	d.p.add(srvSpan{kind: kindDeliver, node: d.node, seq: seqOf(item.Data), id: item.ID, iv: interval{start, now()}})
	return err
}

// storeProbe wraps the mailbox store the delivery agent writes through.
type storeProbe struct {
	mailstore.Store
	p    *probes
	node int
}

func (s storeProbe) Deliver(id string, recipients []string, body []byte) error {
	start := now()
	err := s.Store.Deliver(id, recipients, body)
	s.p.add(srvSpan{kind: kindStore, node: s.node, seq: seqOf(body), id: id,
		rcpts: len(recipients), bytes: len(body), iv: interval{start, now()}})
	return err
}

// resolverProbe wraps the dnsbl.Resolver handed to policy.List.
type resolverProbe struct {
	p    *probes
	next dnsbl.Resolver
}

func (r resolverProbe) Lookup(ctx context.Context, ip addr.IPv4) (dnsbl.Result, error) {
	start := now()
	res, err := r.next.Lookup(ctx, ip)
	r.p.add(srvSpan{kind: kindDNSBL, key: uint32(ip), seq: -1, iv: interval{start, now()}})
	return res, err
}

// timeCheck records one access-database lookup.
func (p *probes) timeCheck(start time.Time) {
	d := time.Since(start)
	p.mu.Lock()
	p.checks = append(p.checks, d)
	p.mu.Unlock()
}

// validateBytes wraps the allocation-free ValidateRcptBytes hook.
func (p *probes) validateBytes(next func([]byte) bool) func([]byte) bool {
	return func(a []byte) bool {
		start := time.Now()
		ok := next(a)
		p.timeCheck(start)
		return ok
	}
}

// validate wraps the string ValidateRcpt hook (the director's form).
func (p *probes) validate(next func(string) bool) func(string) bool {
	return func(a string) bool {
		start := time.Now()
		ok := next(a)
		p.timeCheck(start)
		return ok
	}
}

// fsMeter wraps the fsim.FS one store writes through and counts what
// reaches the disk: files created, bytes written and fsyncs. For the
// spool it also records one span per spooled file, from Create to
// Close, named by the queue id.
type fsMeter struct {
	fsim.FS
	p     *probes // non-nil: record spool spans
	node  int
	files atomic.Int64
	bytes atomic.Int64
	syncs atomic.Int64
}

func (m *fsMeter) Create(name string) (fsim.File, error) {
	start := now()
	f, err := m.FS.Create(name)
	if err != nil {
		return nil, err
	}
	m.files.Add(1)
	return &fileMeter{File: f, m: m, opened: start}, nil
}

func (m *fsMeter) OpenAppend(name string) (fsim.File, error) {
	created := !m.FS.Exists(name)
	f, err := m.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	if created {
		m.files.Add(1)
	}
	return &fileMeter{File: f, m: m, opened: -1}, nil
}

func (m *fsMeter) Link(oldname, newname string) error {
	err := m.FS.Link(oldname, newname)
	if err == nil {
		m.files.Add(1)
	}
	return err
}

// fileMeter counts one open file's writes and syncs.
type fileMeter struct {
	fsim.File
	m      *fsMeter
	opened time.Duration // Create instant; -1 for appends
}

func (f *fileMeter) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.m.bytes.Add(int64(n))
	return n, err
}

func (f *fileMeter) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.m.bytes.Add(int64(n))
	return n, err
}

func (f *fileMeter) Sync() error {
	f.m.syncs.Add(1)
	return f.File.Sync()
}

func (f *fileMeter) Close() error {
	err := f.File.Close()
	if f.m.p != nil && f.opened >= 0 && strings.Contains(f.Name(), "/active/") {
		f.m.p.add(srvSpan{kind: kindSpool, node: f.m.node, seq: -1, id: path.Base(f.Name()),
			iv: interval{f.opened, now()}})
	}
	return err
}
