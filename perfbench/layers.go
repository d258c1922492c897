package main

import (
	"fmt"
	"io"
	"time"
)

// Per-layer metrics from the traced run. Each names, in its comment,
// the end-to-end metric it should move and on which workload; on a
// workload where its layer does no work the value is the formula's
// honest result (0 events, skew 1).

// durMS converts durations to float milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// perLayer computes the per-layer metrics of the traced run res, with
// base the untraced run of the same inputs, and prints the budget.
func perLayer(w io.Writer, base, res *result, wl *workloadSpec) report {
	var rep report
	t := rep.verdict([]*result{res})
	conns := float64(max(t.conns, 1))
	ix := indexSpans(res.spans)
	front := "smtpserver"
	if wl.cluster {
		front = "director"
	}

	// Client-side command round trips.
	var banner, rcpt, data, forward []float64
	latencyBudget, inboxBudget := newBudget(), newBudget()
	mails := 0
	for i := range res.recs {
		r := &res.recs[i]
		var dataIv interval
		for _, c := range r.cmds {
			switch c.kind {
			case cmdBanner:
				banner = append(banner, ms(c.iv.len()))
			case cmdRcpt:
				rcpt = append(rcpt, ms(c.iv.len()))
			case cmdData:
				data = append(data, ms(c.iv.len()))
				dataIv = c.iv
			}
		}
		if !r.acked {
			continue
		}
		end, ok := inboxEnd(ix.store[r.seq])
		if !ok {
			continue // lost: the oracle has already failed the run
		}
		mails++
		enq := time.Duration(0)
		for _, e := range ix.enqueue[r.seq] {
			enq += e.iv.len()
		}
		forward = append(forward, ms(dataIv.len()-enq))
		lat, inbox := ix.mailPieces(r, front)
		latencyBudget.add(interval{r.iv.start, r.ack}, lat)
		inboxBudget.add(interval{r.eod, end}, inbox)
	}
	unattributed := max(latencyBudget.unattributedFrac(), inboxBudget.unattributedFrac())
	latencyBudget.print(w, "mail_latency", mails)
	inboxBudget.print(w, "inbox_ms", mails)
	if unattributed > maxUnattributed {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("layer budget failed: %.1f%% unattributed (limit %.0f%%)",
			100*unattributed, 100*maxUnattributed))
	}

	// Server-side seams.
	var enqueue, wait, deliver, deliverSelf, store, lookups []float64
	var dnsblBusy []interval
	stores := make(map[string]srvSpan)
	enqueues := make(map[string]srvSpan)
	for _, s := range res.spans {
		key := idKey(s.node, s.id)
		switch s.kind {
		case kindStore:
			stores[key] = s
			store = append(store, ms(s.iv.len()))
		case kindEnqueue:
			enqueues[key] = s
			enqueue = append(enqueue, ms(s.iv.len()))
		case kindDNSBL:
			lookups = append(lookups, ms(s.iv.len()))
			dnsblBusy = append(dnsblBusy, s.iv)
		}
	}
	for _, s := range res.spans {
		if s.kind != kindDeliver {
			continue
		}
		key := idKey(s.node, s.id)
		deliver = append(deliver, ms(s.iv.len()))
		if st, ok := stores[key]; ok {
			deliverSelf = append(deliverSelf, ms(s.iv.len()-st.iv.len()))
		}
		if e, ok := enqueues[key]; ok {
			wait = append(wait, ms(s.iv.start-e.iv.end))
		}
	}
	window := res.windowEnd - res.start
	storeCalls := float64(max(len(store), 1))
	enqueued := float64(max(res.queue.Enqueued, 1))
	fullConns := float64(max(res.srv.Connections, 1))
	policyConns := fullConns
	rejected, tempfail := res.srv.PolicyRejected, res.srv.PolicyTempfail
	if wl.cluster {
		policyConns = float64(max(res.dir.Connections, 1))
		rejected, tempfail = res.dir.PolicyRejected, res.dir.PolicyTempfail
	}
	maxEnq, sumEnq := int64(0), int64(0)
	for _, n := range res.shardEnq {
		maxEnq = max(maxEnq, n)
		sumEnq += n
	}

	// smtpserver → conn_latency_* and mail_latency_* (banner, rcpt on
	// sinkhole; data on cluster).
	rep.add("smtpserver.banner_ms_p50", quantile(banner, 0.5), "ms")
	rep.add("smtpserver.banner_ms_p99", quantile(banner, 0.99), "ms")
	rep.add("smtpserver.rcpt_ms_p99", quantile(rcpt, 0.99), "ms")
	rep.add("smtpserver.data_ms_p50", quantile(data, 0.5), "ms")
	rep.add("smtpserver.data_ms_p99", quantile(data, 0.99), "ms")
	rep.add("smtpserver.handoff_frac", ratio(float64(res.srv.Handoffs), fullConns), "ratio")
	rep.add("smtpserver.pretrust_closed_frac", ratio(float64(res.srv.PreTrustClosed), fullConns), "ratio")
	// access → cpu_us_per_conn on sinkhole.
	rep.add("access.rcpt_checks_per_conn", float64(len(res.checks))/conns, "count")
	rep.add("access.check_us_p99", quantile(durMS(res.checks), 0.99)*1000, "us")
	// dnsbl and policy → conns_per_s and conn_latency_p99_ms on sinkhole.
	rep.add("dnsbl.lookups", float64(len(lookups)), "count")
	rep.add("dnsbl.upstream_queries", float64(res.upstream), "count")
	rep.add("dnsbl.hit_ratio", 1-ratio(float64(res.upstream), float64(len(lookups))), "ratio")
	rep.add("dnsbl.lookup_ms_p50", quantile(lookups, 0.5), "ms")
	rep.add("dnsbl.lookup_ms_p99", quantile(lookups, 0.99), "ms")
	rep.add("dnsbl.busy_frac", ratio(float64(unionLen(dnsblBusy)), float64(window)), "ratio")
	rep.add("policy.rejected_frac", float64(rejected)/policyConns, "ratio")
	rep.add("policy.tempfail_frac", float64(tempfail)/policyConns, "ratio")
	// queue → mail_latency_* and inbox_ms_* on cluster; full and deferred
	// → failed_frac.
	rep.add("queue.enqueue_ms_p50", quantile(enqueue, 0.5), "ms")
	rep.add("queue.enqueue_ms_p99", quantile(enqueue, 0.99), "ms")
	rep.add("queue.wait_ms_p50", quantile(wait, 0.5), "ms")
	rep.add("queue.wait_ms_p99", quantile(wait, 0.99), "ms")
	rep.add("queue.full", float64(res.srv.EnqueueFailures), "count")
	rep.add("queue.deferred", float64(res.queue.Deferred), "count")
	// spool → mail_latency_p50_ms and mails_per_s on cluster.
	rep.add("spool.fsyncs_per_mail", float64(res.spoolFS.syncs)/enqueued, "count")
	rep.add("spool.bytes_per_mail", float64(res.spoolFS.bytes)/enqueued, "B")
	// delivery → inbox_ms_* on cluster.
	rep.add("delivery.deliver_ms_p50", quantile(deliver, 0.5), "ms")
	rep.add("delivery.deliver_ms_p99", quantile(deliver, 0.99), "ms")
	rep.add("delivery.self_ms_p50", quantile(deliverSelf, 0.5), "ms")
	// mfs → inbox_ms_* and mails_per_s on cluster; bytes and write
	// amplification → alloc_kb_per_conn on cluster and sinkhole.
	rep.add("mfs.deliver_ms_p50", quantile(store, 0.5), "ms")
	rep.add("mfs.deliver_ms_p99", quantile(store, 0.99), "ms")
	rep.add("mfs.fsyncs_per_mail", float64(res.mfsFS.syncs)/storeCalls, "count")
	rep.add("mfs.mails_per_batch", ratio(float64(res.commit.Mails), float64(res.commit.Batches)), "count")
	rep.add("mfs.bytes_per_mail", float64(res.mfsFS.bytes)/storeCalls, "B")
	rep.add("mfs.write_amp", ratio(float64(res.mfsFS.bytes), float64(res.storeRcptsB)), "ratio")
	// director → mail_latency_* on cluster. forward is the client's DATA
	// round trip minus the shard's Enqueue time; with no director hop it
	// is the front end's own share of the DATA round trip.
	rep.add("director.forward_ms_p50", quantile(forward, 0.5), "ms")
	rep.add("director.forward_ms_p99", quantile(forward, 0.99), "ms")
	rep.add("director.forward_retries", float64(res.dir.ForwardRetries), "count")
	rep.add("director.shard_skew", ratio(float64(maxEnq), float64(sumEnq)/float64(max(len(res.shardEnq), 1))), "ratio")
	rep.add("director.rcpt_skew", float64(res.dir.RcptSkew), "count")
	if wl.cluster {
		rep.info("director.handoff_p99_ms", res.handoffP99*1000, "ms")
	} else {
		rep.notes = append(rep.notes, "metric director.handoff_p99_ms n/a (no director on this workload)")
	}
	// gossip → conn_latency_p99_ms on cluster, with dnsbl.upstream_queries
	// summed over the directors.
	rep.add("gossip.exchanges", float64(res.gossip.Exchanges), "count")
	rep.add("gossip.merged", float64(res.gossip.RepApplied+res.gossip.GreyApplied+res.gossip.VerdApplied), "count")
	rep.notes = append(rep.notes, fmt.Sprintf("files created: spool %d, mfs %d", res.spoolFS.files, res.mfsFS.files))
	// bench: the instrument itself.
	rep.add("bench.trace_overhead_frac", 1-ratio(mailsPerSecond(res), mailsPerSecond(base)), "ratio")
	rep.add("bench.unattributed_frac", unattributed, "ratio")
	rep.add("bench.failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.add("bench.ham_refused_frac", ratio(float64(t.hamRefused), float64(t.hamConns)), "ratio")
	return rep
}
