package main

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smtp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cmdTimeout bounds the dial and every command round trip.
const cmdTimeout = 10 * time.Second

// outcome is how one replayed connection ended.
type outcome uint8

const (
	outAccepted   outcome = iota + 1 // a mail was acknowledged 250
	outBounce                        // every recipient drew 550
	outUnfinished                    // the client left after HELO, as the trace says
	outRefused                       // a 421/450/451/554 refusal ended it
	outFailed                        // transport error, timeout or unexpected reply
)

// cmdKind names a client command round trip.
type cmdKind uint8

const (
	cmdBanner cmdKind = iota // dial to banner (accept, policy, DNSBL)
	cmdHelo
	cmdMail
	cmdRcpt
	cmdData // DATA to the 250 after the body
	cmdQuit
)

var cmdNames = [...]string{"banner", "helo", "mail", "rcpt", "data", "quit"}

type cmdSpan struct {
	kind cmdKind
	iv   interval
}

// connRec is the replayer's record of one connection.
type connRec struct {
	seq     int64
	ham     bool
	src     uint32 // loopback source address
	outcome outcome
	failure string // why, when outFailed
	iv      interval
	// An acknowledged mail: the instant the body's last byte was
	// written, the 250, and the mailboxes it must land in.
	acked bool
	eod   time.Duration
	ack   time.Duration
	boxes []string
	cmds  []cmdSpan // traced runs only
}

// failVerdict marks a RCPT reply that contradicts the access database:
// a wrong output, not a transport fault.
const failVerdict = "rcpt verdict contradicts the access database"

// refusal reports whether err carries a reply code the oracle treats
// as a refusal rather than an error: 421/450/451/554 at any step.
func refusal(err error) (int, bool) {
	var unexpected *smtp.UnexpectedReplyError
	if !errors.As(err, &unexpected) {
		return 0, false
	}
	switch c := unexpected.Reply.Code; c {
	case 421, 450, 451, 554:
		return c, true
	default:
		return c, false
	}
}

// clockConn stamps the end of every write, so the replayer knows when
// the last byte of a body left it.
type clockConn struct {
	net.Conn
	lastWrite time.Duration
}

func (c *clockConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.lastWrite = now()
	return n, err
}

// replayer replays a trace over loopback TCP as a closed loop: each slot
// starts its next connection only after the previous one ended.
type replayer struct {
	conns   []trace.Conn
	first   int64 // the trace index of conns[0], which numbers every mail
	targets []string
	traced  bool
	next    atomic.Int64
	// exhausted is set when a slot found the trace used up before the
	// deadline; the run then measures a shorter window.
	exhausted atomic.Bool
}

// run drives slots slots until deadline and returns every record.
func (d *replayer) run(slots int, deadline time.Duration) []connRec {
	recs := make([][]connRec, slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := d.targets[i%len(d.targets)]
			var body []byte
			for now() < deadline {
				k := d.next.Add(1) - 1
				if k >= int64(len(d.conns)) {
					d.exhausted.Store(true)
					return
				}
				var rec connRec
				body = d.play(target, k, body, &rec)
				recs[i] = append(recs[i], rec)
			}
		}(i)
	}
	wg.Wait()
	var all []connRec
	for _, r := range recs {
		all = append(all, r...)
	}
	return all
}

// play performs trace connection k against target, checking every
// reply against the oracle: a valid recipient must draw 250, an invalid
// one 550, and a refusal may come only as 421/450/451/554. body is a
// reusable buffer; play returns it grown.
func (d *replayer) play(target string, k int64, body []byte, rec *connRec) []byte {
	c := &d.conns[k]
	src := workload.LoopbackSource(c.ClientIP)
	*rec = connRec{seq: d.first + k, ham: !c.Spam, src: uint32(src)}
	rec.iv.start = now()
	// Each command span runs from just before its call to just after
	// it, so the replayer's own work between commands stays unattributed.
	var mark time.Duration
	begin := func() { mark = now() }
	span := func(kind cmdKind) {
		if d.traced {
			rec.cmds = append(rec.cmds, cmdSpan{kind, interval{mark, now()}})
		}
	}
	finish := func(o outcome, failure string) []byte {
		rec.outcome, rec.failure = o, failure
		rec.iv.end = now()
		return body
	}

	dialer := net.Dialer{Timeout: cmdTimeout, LocalAddr: &net.TCPAddr{IP: net.ParseIP(src.String())}}
	begin()
	nc, err := dialer.Dial("tcp", target)
	if err != nil {
		return finish(outFailed, "dial")
	}
	cc := &clockConn{Conn: nc}
	cl, err := smtp.NewClient(cc, smtp.WithCommandTimeout(cmdTimeout))
	span(cmdBanner)
	if err != nil {
		if _, ok := refusal(err); ok {
			return finish(outRefused, "")
		}
		return finish(outFailed, "banner")
	}
	// fail closes the connection and classifies why the dialog ended.
	fail := func(step string, err error) []byte {
		cl.Abort()
		if _, ok := refusal(err); ok {
			return finish(outRefused, "")
		}
		return finish(outFailed, step)
	}
	begin()
	if err := cl.Helo(c.Helo); err != nil {
		return fail("helo", err)
	}
	span(cmdHelo)
	if c.Unfinished {
		cl.Abort()
		return finish(outUnfinished, "")
	}
	begin()
	if err := cl.Mail(c.Sender); err != nil {
		return fail("mail", err)
	}
	span(cmdMail)
	var boxes []string
	for _, r := range c.Rcpts {
		begin()
		reply, err := cl.Rcpt(r.Addr)
		span(cmdRcpt)
		if err != nil {
			if code, ok := refusal(err); ok && code != 421 {
				continue // this recipient refused; the session goes on
			}
			return fail("rcpt", err)
		}
		switch {
		case reply.Code == 250 && r.Valid:
			boxes = appendBox(boxes, r.Addr)
		case reply.Code == 550 && !r.Valid:
		default:
			cl.Abort()
			return finish(outFailed, failVerdict)
		}
	}
	if len(boxes) == 0 {
		if err := cl.Reset(); err != nil {
			return fail("rset", err)
		}
		begin()
		if err := cl.Quit(); err != nil {
			return finish(outFailed, "quit")
		}
		span(cmdQuit)
		if c.ValidRcpts() > 0 {
			return finish(outRefused, "")
		}
		return finish(outBounce, "")
	}
	body = bodyFor(body, rec.seq, c)
	begin()
	if err := cl.Data(body); err != nil {
		return fail("data", err)
	}
	rec.acked, rec.eod, rec.ack, rec.boxes = true, cc.lastWrite, now(), boxes
	span(cmdData)
	begin()
	if err := cl.Quit(); err != nil {
		return finish(outFailed, "quit")
	}
	span(cmdQuit)
	return finish(outAccepted, "")
}

// appendBox adds the mailbox of a local address, once.
func appendBox(boxes []string, address string) []string {
	local, _, _ := strings.Cut(address, "@")
	box := strings.ToLower(local)
	for _, b := range boxes {
		if b == box {
			return boxes
		}
	}
	return append(boxes, box)
}

// bodyFor writes mail seq's message into buf: the sequence header
// first, then the trace's sender and a filler up to its size.
func bodyFor(buf []byte, seq int64, c *trace.Conn) []byte {
	buf = append(buf[:0], seqHeader...)
	buf = strconv.AppendInt(buf, seq, 10)
	buf = append(buf, "\r\nFrom: "...)
	buf = append(buf, c.Sender...)
	buf = append(buf, "\r\nSubject: perfbench\r\n\r\n"...)
	const line = "The quick brown fox jumps over the lazy dog. 0123456789\r\n"
	for len(buf) < c.SizeBytes {
		n := c.SizeBytes - len(buf)
		if n > len(line) {
			n = len(line)
		}
		buf = append(buf, line[:n]...)
	}
	return buf
}
