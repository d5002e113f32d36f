package platform

import (
	"time"

	"dynacrowd/internal/obs"
)

// platformMetrics holds the platform-layer instruments. Constructed
// only when Config.Obs is set; a nil *platformMetrics (observability
// disabled) makes every method a cheap no-op, keeping the tick path
// allocation-free.
type platformMetrics struct {
	tickSeconds   *obs.Histogram
	fanoutSeconds *obs.Histogram  // latency of one batched slot fan-out
	roundWelfare  *obs.FloatGauge // welfare accumulated in the current round
	roundPaid     *obs.FloatGauge // payments issued in the current round
}

// newPlatformMetrics registers the platform metric catalog (see
// docs/OBSERVABILITY.md) against reg. Cumulative counters are bridged
// from the server's atomic tally via CounterFunc/GaugeFunc, so the
// counters are maintained once and scraped without double accounting
// or extra hot-path work.
func newPlatformMetrics(reg *obs.Registry, s *Server) *platformMetrics {
	if reg == nil {
		return nil
	}
	c := &s.counters
	bridge := func(name, help string, v func() float64, gauge bool) {
		if gauge {
			reg.GaugeFunc(name, help, v)
		} else {
			reg.CounterFunc(name, help, v)
		}
	}
	i64 := func(a interface{ Load() int64 }) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	bridge("dynacrowd_platform_slot", "Last processed slot of the current round.", i64(&c.slot), true)
	bridge("dynacrowd_platform_round", "Current round number (1-based).", i64(&c.round), true)
	bridge("dynacrowd_platform_connections_total", "Agent sessions ever accepted.", i64(&c.connections), false)
	bridge("dynacrowd_platform_live_connections", "Agent sessions currently open.", i64(&c.live), true)
	bridge("dynacrowd_platform_bids_accepted_total", "Bids queued for admission.", i64(&c.bidsAccepted), false)
	bridge("dynacrowd_platform_bids_rejected_total", "Bids refused (duplicate, late, closed).", i64(&c.bidsRejected), false)
	bridge("dynacrowd_platform_tasks_announced_total", "Sensing tasks announced.", i64(&c.tasksAnnounced), false)
	bridge("dynacrowd_platform_tasks_served_total", "Sensing tasks allocated to a phone.", i64(&c.tasksServed), false)
	bridge("dynacrowd_platform_tasks_unserved_total", "Sensing tasks that found no eligible phone.", i64(&c.tasksUnserved), false)
	bridge("dynacrowd_platform_payments_issued_total", "Critical-value payments issued to departing winners.", i64(&c.paymentsIssued), false)
	bridge("dynacrowd_platform_protocol_errors_total", "Malformed or unexpected agent messages.", i64(&c.protocolErrors), false)
	bridge("dynacrowd_platform_resumes_total", "Sessions re-attached to a phone via resume.", i64(&c.resumes), false)
	bridge("dynacrowd_platform_rounds_completed_total", "Auction rounds played to their final slot.", i64(&c.roundsCompleted), false)
	bridge("dynacrowd_platform_messages_queued_total", "Outbound messages accepted into session queues.", i64(&c.messagesQueued), false)
	bridge("dynacrowd_platform_messages_dropped_total", "Outbound messages dropped (dead or overflowing session).", i64(&c.messagesDropped), false)
	bridge("dynacrowd_platform_slow_consumers_total", "Sessions disconnected for not draining their queue.", i64(&c.slowConsumers), false)
	reg.GaugeFunc("dynacrowd_platform_sessions", "Agent sessions currently connected, by negotiated wire format.",
		func() float64 { return float64(c.live.Load() - c.binarySessions.Load()) }, "format", "json")
	reg.GaugeFunc("dynacrowd_platform_sessions", "Agent sessions currently connected, by negotiated wire format.",
		i64(&c.binarySessions), "format", "binary")
	reg.CounterFunc("dynacrowd_platform_messages_sent_total", "Messages written to the wire, by framing.",
		i64(&c.sentJSON), "format", "json")
	reg.CounterFunc("dynacrowd_platform_messages_sent_total", "Messages written to the wire, by framing.",
		i64(&c.sentBinary), "format", "binary")
	bridge("dynacrowd_platform_completions_total", "Task-done reports accepted from winners.", i64(&c.completionsReported), false)
	bridge("dynacrowd_platform_completions_rejected_total", "Task-done reports refused (wrong phone, task, or round).", i64(&c.completionsRejected), false)
	bridge("dynacrowd_platform_winners_defaulted_total", "Winners whose completion deadline lapsed.", i64(&c.winnersDefaulted), false)
	bridge("dynacrowd_platform_tasks_reallocated_total", "Defaulted tasks re-assigned to a replacement phone.", i64(&c.tasksReallocated), false)
	bridge("dynacrowd_platform_tasks_unreplaced_total", "Defaulted tasks with no eligible replacement.", i64(&c.tasksUnreplaced), false)
	bridge("dynacrowd_platform_clawbacks_total", "Payment revocation notices issued to defaulted winners.", i64(&c.clawbacksIssued), false)
	reg.CounterFunc("dynacrowd_platform_clawback_amount_total",
		"Cumulative payment amounts revoked from defaulted winners.",
		c.clawbackTotal.Value)
	reg.CounterFunc("dynacrowd_platform_paid_total",
		"Cumulative payments issued, across rounds (matches Outcome.TotalPayment per completed round).",
		c.totalPaid.Value)
	reg.CounterFunc("dynacrowd_platform_welfare_total",
		"Cumulative social welfare Σ(ν − b) over assignments, across rounds (matches Outcome.Welfare per completed round).",
		c.totalWelfare.Value)

	reg.GaugeFunc("dynacrowd_platform_session_queue_depth",
		"Outbound messages sitting in session queues right now.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			depth := 0
			for sess := range s.sessions {
				depth += len(sess.out)
			}
			return float64(depth)
		})

	return &platformMetrics{
		tickSeconds: reg.Histogram("dynacrowd_platform_tick_seconds",
			"Latency of one slot tick: bid admission, allocation, notifications, payments.",
			obs.LatencyBuckets),
		fanoutSeconds: reg.Histogram("dynacrowd_platform_fanout_seconds",
			"Latency of one batched slot broadcast: encode once per format, enqueue to every phone.",
			obs.LatencyBuckets),
		roundWelfare: reg.FloatGauge("dynacrowd_platform_round_welfare",
			"Social welfare accumulated in the current round."),
		roundPaid: reg.FloatGauge("dynacrowd_platform_round_paid",
			"Payments issued in the current round."),
	}
}

// start returns the time a timed stage starts at; with observability
// off it is the zero time, and the clock is not read.
func (pm *platformMetrics) start() time.Time {
	if pm == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeTick records the latency of one tick that started at start.
func (pm *platformMetrics) observeTick(start time.Time) {
	if pm != nil {
		pm.tickSeconds.Observe(time.Since(start).Seconds())
	}
}

// observeFanout records the latency of one batched slot broadcast that
// started at start.
func (pm *platformMetrics) observeFanout(start time.Time) {
	if pm != nil {
		pm.fanoutSeconds.Observe(time.Since(start).Seconds())
	}
}

// addRoundWelfare / addRoundPaid advance the per-round gauges.
func (pm *platformMetrics) addRoundWelfare(v float64) {
	if pm != nil {
		pm.roundWelfare.Add(v)
	}
}

func (pm *platformMetrics) addRoundPaid(v float64) {
	if pm != nil {
		pm.roundPaid.Add(v)
	}
}

// resetRound zeroes the per-round gauges when a new round opens.
func (pm *platformMetrics) resetRound() {
	if pm != nil {
		pm.roundWelfare.Set(0)
		pm.roundPaid.Set(0)
	}
}
