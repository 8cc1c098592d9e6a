package exporter

import "time"

// sealReason classifies what sealed a batch. The distribution is the
// exporter's observable behavior: a healthy one seals idle while the
// link keeps up (the sender was free) and by size under back-pressure
// or while the link is down (the batch reached its target).
type sealReason uint8

const (
	sealSize  sealReason = iota // pending reached the batch target
	sealFlush                   // explicit Flush
	sealLoss                    // NoteLoss sealing for sequence contiguity
	sealClose                   // Close sealing the tail
	sealIdle                    // an idle sender shipping the open batch
	sealReasons
)

func (r sealReason) String() string {
	switch r {
	case sealSize:
		return "size"
	case sealFlush:
		return "flush"
	case sealLoss:
		return "loss"
	case sealClose:
		return "close"
	case sealIdle:
		return "idle"
	}
	return "unknown"
}

// ewmaGain is the arrival-rate estimator's gain, 1/8 — the TCP
// RTT-estimator idiom (and the same gain tracer.ClockEstimator uses):
// heavy enough smoothing to ride out per-event jitter, light enough to
// track a burst within a handful of events.
const ewmaGain = 8

// sealController picks the batch size that fills within the latency
// SLO at the observed arrival rate — Nagle's algorithm with a budget.
//
// It keeps an EWMA of the inter-arrival gap and, at each seal, sets
//
//	target = clamp(slo / gap, 1, max)
//
// which is the largest batch whose expected fill time stays under the
// SLO. Under a burst the gap collapses and the target grows toward max
// (amortizing framing and syscalls, e13's regime); under a trickle the
// gap stretches and the target collapses toward 1 (shipping each event
// promptly, e14's regime). Observed gaps are clamped at 4×SLO so an
// idle period reads as "slow", not as an estimate-destroying outlier.
//
// The controller is driven entirely by caller-supplied timestamps
// (Config.Now), so a fake clock reproduces byte-identical trajectories.
type sealController struct {
	sloNs int64
	maxB  int

	gapNs  float64 // EWMA of inter-arrival gap; 0 until two arrivals
	lastNs int64   // previous arrival; 0 until one arrival
	target int     // current batch-size target, recomputed at each seal
}

func newSealController(slo time.Duration, maxB int) *sealController {
	return &sealController{sloNs: int64(slo), maxB: maxB, target: 1}
}

// observe feeds one arrival timestamp into the gap estimator.
func (sc *sealController) observe(nowNs int64) {
	if sc.lastNs != 0 {
		gap := float64(nowNs - sc.lastNs)
		if hi := float64(4 * sc.sloNs); gap > hi {
			gap = hi
		}
		if gap < 1 {
			gap = 1 // a zero/negative gap still means "as fast as possible"
		}
		if sc.gapNs == 0 {
			sc.gapNs = gap
		} else {
			sc.gapNs += (gap - sc.gapNs) / ewmaGain
		}
	}
	sc.lastNs = nowNs
}

// reseal recomputes the batch-size target from the current estimate.
// Called at each seal, so the target is constant within one batch.
func (sc *sealController) reseal() int {
	if sc.gapNs <= 0 {
		// No estimate yet: stay conservative — a target of 1 ships the
		// first events immediately and the estimator learns from them.
		sc.target = 1
		return sc.target
	}
	t := int(float64(sc.sloNs) / sc.gapNs)
	if t < 1 {
		t = 1
	}
	if t > sc.maxB {
		t = sc.maxB
	}
	sc.target = t
	return sc.target
}

// rateEPS is the estimated arrival rate in events/second, 0 until the
// estimator has a gap.
func (sc *sealController) rateEPS() int64 {
	if sc.gapNs <= 0 {
		return 0
	}
	return int64(1e9 / sc.gapNs)
}
