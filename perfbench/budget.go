package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Layer budget. A layer's self time on a mail is the part of the mail's
// interval during which that layer is the innermost one holding it. The
// pieces are the spans recorded at the seams, each ranked by depth; an
// instant no piece covers is unattributed. Two intervals are budgeted
// per acknowledged mail:
//
//	mail_latency: dial → 250 after DATA. Pieces: the client's command
//	round trips (the front layer: smtpserver, or the director on the
//	cluster), DNSBL lookups inside the banner, the queue's Enqueue call
//	inside DATA, and the spool file write inside Enqueue.
//	inbox: the body's last byte → Store.Deliver returning. Pieces: the
//	DATA round trip (front layer), Enqueue and the spool write, the
//	queue wait (Enqueue return → Deliver call), the delivery agent's
//	Deliver call, and the mailbox store's Deliver call.

// piece is one ranked span of a mail.
type piece struct {
	layer string
	rank  int
	iv    interval
}

// attribute splits bound among the pieces by rank and returns each
// layer's self time plus the unattributed remainder.
func attribute(bound interval, pieces []piece, self map[string]time.Duration) (unattributed time.Duration) {
	cuts := []time.Duration{bound.start, bound.end}
	for i := range pieces {
		pieces[i].iv = pieces[i].iv.clip(bound)
		if pieces[i].iv.len() > 0 {
			cuts = append(cuts, pieces[i].iv.start, pieces[i].iv.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		seg := interval{cuts[i], cuts[i+1]}
		if seg.len() == 0 {
			continue
		}
		best := -1
		for j, p := range pieces {
			if p.iv.start <= seg.start && seg.end <= p.iv.end && (best < 0 || p.rank > pieces[best].rank) {
				best = j
			}
		}
		if best < 0 {
			unattributed += seg.len()
			continue
		}
		self[pieces[best].layer] += seg.len()
	}
	return unattributed
}

// budget is the per-layer decomposition of one interval over all mails.
type budget struct {
	total        time.Duration
	unattributed time.Duration
	self         map[string]time.Duration
}

func newBudget() *budget { return &budget{self: make(map[string]time.Duration)} }

func (b *budget) add(bound interval, pieces []piece) {
	b.total += bound.len()
	b.unattributed += attribute(bound, pieces, b.self)
}

func (b *budget) unattributedFrac() float64 {
	return ratio(float64(b.unattributed), float64(b.total))
}

// print writes the budget as mean self milliseconds per mail and share.
func (b *budget) print(w io.Writer, name string, mails int) {
	fmt.Fprintf(w, "budget %s over %d mails: mean %.3f ms\n", name, mails, ms(b.total)/float64(max(mails, 1)))
	layers := make([]string, 0, len(b.self))
	for l := range b.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return b.self[layers[i]] > b.self[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %9.4f ms  %6.2f%%\n", l, ms(b.self[l])/float64(max(mails, 1)),
			100*ratio(float64(b.self[l]), float64(b.total)))
	}
	fmt.Fprintf(w, "  %-12s %9.4f ms  %6.2f%%\n", "unattributed", ms(b.unattributed)/float64(max(mails, 1)),
		100*b.unattributedFrac())
}

// Ranks: deeper layers win the instants they share with their callers.
const (
	rankFront = iota
	rankWait
	rankDNSBL
	rankEnqueue
	rankSpool
	rankDeliver
	rankStore
)

// mailIndex groups the server-side spans by mail.
type mailIndex struct {
	enqueue map[int64][]srvSpan
	deliver map[int64][]srvSpan
	store   map[int64][]srvSpan
	spool   map[string]srvSpan   // by node/queue id
	dnsbl   map[uint32][]srvSpan // by looked-up address
}

// idKey names a queue id on one node.
func idKey(node int, id string) string { return fmt.Sprintf("%d/%s", node, id) }

func indexSpans(spans []srvSpan) *mailIndex {
	ix := &mailIndex{
		enqueue: make(map[int64][]srvSpan),
		deliver: make(map[int64][]srvSpan),
		store:   make(map[int64][]srvSpan),
		spool:   make(map[string]srvSpan),
		dnsbl:   make(map[uint32][]srvSpan),
	}
	for _, s := range spans {
		switch s.kind {
		case kindEnqueue:
			ix.enqueue[s.seq] = append(ix.enqueue[s.seq], s)
		case kindDeliver:
			ix.deliver[s.seq] = append(ix.deliver[s.seq], s)
		case kindStore:
			ix.store[s.seq] = append(ix.store[s.seq], s)
		case kindSpool:
			ix.spool[idKey(s.node, s.id)] = s
		case kindDNSBL:
			ix.dnsbl[s.key] = append(ix.dnsbl[s.key], s)
		}
	}
	return ix
}

// mailPieces returns the ranked pieces of one acknowledged mail for
// its two budgets. front names the layer the client talks to. The
// queue wait and what follows it run after the 250 is due, so they
// belong to the inbox budget only.
func (ix *mailIndex) mailPieces(r *connRec, front string) (latency, inbox []piece) {
	for _, c := range r.cmds {
		if c.kind == cmdQuit {
			continue
		}
		latency = append(latency, piece{front, rankFront, c.iv})
		if c.kind == cmdData {
			inbox = append(inbox, piece{front, rankFront, c.iv})
		}
		if c.kind == cmdBanner {
			for _, s := range ix.dnsbl[r.src] {
				if c.iv.start <= s.iv.start && s.iv.end <= c.iv.end {
					latency = append(latency, piece{"dnsbl", rankDNSBL, s.iv})
				}
			}
		}
	}
	for _, e := range ix.enqueue[r.seq] {
		enq := []piece{{"queue", rankEnqueue, e.iv}}
		if sp, ok := ix.spool[idKey(e.node, e.id)]; ok {
			enq = append(enq, piece{"spool", rankSpool, sp.iv})
		}
		latency = append(latency, enq...)
		inbox = append(inbox, enq...)
		for _, dl := range ix.deliver[r.seq] {
			if dl.node == e.node {
				inbox = append(inbox,
					piece{"queue", rankWait, interval{e.iv.end, dl.iv.start}},
					piece{"delivery", rankDeliver, dl.iv})
			}
		}
	}
	for _, s := range ix.store[r.seq] {
		inbox = append(inbox, piece{"mfs", rankStore, s.iv})
	}
	return latency, inbox
}

// inboxEnd returns when the last Store.Deliver for the mail returned.
func inboxEnd(stores []srvSpan) (time.Duration, bool) {
	var end time.Duration
	for _, s := range stores {
		if s.iv.end > end {
			end = s.iv.end
		}
	}
	return end, len(stores) > 0
}

// writeSpans writes every recorded span, one per line, to file.
func writeSpans(file string, recs []connRec, spans []srvSpan) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tkind\tnode\tseq\tid\tstart_ns\tend_ns")
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(w, "client\tconn\t-1\t%d\t-\t%d\t%d\n", r.seq, r.iv.start, r.iv.end)
		for _, c := range r.cmds {
			fmt.Fprintf(w, "client\t%s\t-1\t%d\t-\t%d\t%d\n", cmdNames[c.kind], r.seq, c.iv.start, c.iv.end)
		}
	}
	for _, s := range spans {
		id := s.id
		if id == "" {
			id = "-"
		}
		fmt.Fprintf(w, "server\t%s\t%d\t%d\t%s\t%d\t%d\n", kindNames[s.kind], s.node, s.seq, id, s.iv.start, s.iv.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
