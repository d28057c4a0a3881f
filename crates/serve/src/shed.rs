//! Adaptive overload control: sojourn-time shedding, tenant fairness,
//! computed `Retry-After`, and the paper-guided brown-out signal.
//!
//! The first overload story was a fixed wait-room cap with a constant
//! `Retry-After: 1` — binary and blind: the server was either accepting
//! everything or refusing with a made-up hint. This controller replaces
//! it with three graduated defenses, keyed on *measured* signals:
//!
//! 1. **Sojourn-time shedding** (CoDel-style). The controller tracks an
//!    EWMA of slot-wait sojourn times. When sojourn stays above a target
//!    for a full interval, the controller enters a shedding state and
//!    refuses new arrivals while the wait room is contended; it exits as
//!    soon as sojourn drops back under target. Standing queues are
//!    punished, momentary bursts are not.
//! 2. **Tenant fair share.** Each tenant may occupy at most a configured
//!    fraction of the wait room. A hot tenant saturates its own share
//!    and gets 429s while other tenants keep being admitted.
//! 3. **Brown-out** (the paper's token-pruning lever, Algorithm 1's
//!    top-τ% treatment applied to the whole admitted stream). A pressure
//!    signal — recent shed rate plus normalized sojourn — engages
//!    brown-out past an enter threshold; admitted classify requests are
//!    then served with pruned, neighbor-free prompts (`degraded: true`)
//!    until pressure falls below the exit threshold. Degrading costs
//!    accuracy but keeps goodput up, which beats refusing outright.
//!
//! Shed responses carry a `Retry-After` *computed* from queue depth ×
//! observed mean service time (clamped to `[1, 30]` seconds), so clients
//! back off proportionally to how far behind the server actually is.
//!
//! All state lives behind one mutex, touched only on admission and
//! completion edges (never per query), and every method takes `now` as
//! an argument — the controller owns no clock, so tests drive it with
//! synthetic time.

use std::collections::HashMap;
use std::sync::Mutex;

/// Tunables for [`OverloadControl`]. Defaults suit the smoke-test scale
/// (single-digit workers, tens of queued requests).
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Sojourn-time target: slot waits persistently above this mean the
    /// wait room is a standing queue, not a burst buffer.
    pub sojourn_target_micros: u64,
    /// How long sojourn must stay above target before shedding begins.
    pub shed_interval_micros: u64,
    /// Max fraction of the wait room one tenant may occupy, in permille
    /// (e.g. 500 = half the wait room).
    pub tenant_share_permille: u64,
    /// Pressure (milli-units) at or above which brown-out engages.
    pub brownout_enter_milli: u64,
    /// Pressure (milli-units) below which brown-out disengages.
    pub brownout_exit_milli: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            sojourn_target_micros: 100_000,
            shed_interval_micros: 200_000,
            tenant_share_permille: 500,
            brownout_enter_milli: 1_500,
            brownout_exit_milli: 500,
        }
    }
}

/// `reason` label of `mqo_requests_shed_total` for a tenant past its
/// fair share of the wait room.
pub(crate) const SHED_TENANT_SHARE: &str = "tenant_share";
/// `reason` label for a shed on a standing-queue sojourn.
pub(crate) const SHED_SOJOURN: &str = "sojourn";
/// `reason` label for a refusal by the full slot gate (queue
/// backpressure rather than the controller).
pub(crate) const SHED_SATURATED: &str = "saturated";

/// Admission decision for one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Proceed to the slot gate.
    Ok,
    /// Shed now; the `&'static str` is the reason label for events and
    /// metrics (`sojourn` or `tenant_share`).
    Shed(&'static str),
}

/// A brown-out state transition the caller should announce (event +
/// metrics + flight recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutTransition {
    /// Pressure crossed the enter threshold.
    Entered {
        /// Pressure at the transition, in milli-units.
        pressure_milli: u64,
    },
    /// Pressure fell below the exit threshold.
    Exited {
        /// Pressure at the transition, in milli-units.
        pressure_milli: u64,
    },
}

/// Width of the rolling window the shed-rate fraction is computed over.
const SHED_WINDOW_MICROS: u64 = 1_000_000;

#[derive(Debug, Default)]
struct ControlState {
    /// EWMA of slot-wait sojourn times (α = 1/8).
    sojourn_ewma_micros: u64,
    /// EWMA of permit-held service times (α = 1/8); feeds `Retry-After`.
    service_ewma_micros: u64,
    /// When sojourn first exceeded target without dipping back (CoDel's
    /// "first above time"); `None` while under target.
    above_since_micros: Option<u64>,
    /// Whether the controller is currently shedding arrivals.
    shedding: bool,
    /// Rolling shed-rate window: arrivals and sheds since `window_start`.
    window_start_micros: u64,
    offered_in_window: u64,
    shed_in_window: u64,
    /// Shed fraction of the last sealed window, in permille.
    shed_permille: u64,
    /// Whether brown-out is engaged.
    brownout: bool,
    /// Requests per tenant currently past admission (waiting or holding
    /// a slot) — the fair-share denominator.
    tenant_inflight: HashMap<String, usize>,
}

/// The controller. One per server, shared by every handler thread.
pub struct OverloadControl {
    cfg: OverloadConfig,
    /// The wait-room bound of the slot gate this controller fronts.
    wait_cap: usize,
    state: Mutex<ControlState>,
}

impl OverloadControl {
    /// A controller fronting a gate with `wait_cap` wait-room seats.
    pub fn new(cfg: OverloadConfig, wait_cap: usize) -> OverloadControl {
        OverloadControl {
            cfg,
            wait_cap: wait_cap.max(1),
            state: Mutex::new(ControlState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ControlState> {
        self.state.lock().expect("overload control poisoned")
    }

    /// Seal the shed-rate window if it has rolled over.
    fn roll_window(s: &mut ControlState, now_micros: u64) {
        if now_micros.saturating_sub(s.window_start_micros) >= SHED_WINDOW_MICROS {
            s.shed_permille =
                (s.shed_in_window * 1_000).checked_div(s.offered_in_window).unwrap_or(0);
            s.window_start_micros = now_micros;
            s.offered_in_window = 0;
            s.shed_in_window = 0;
        }
    }

    /// Per-tenant wait-room seat cap.
    fn tenant_cap(&self) -> usize {
        (self.wait_cap as u64 * self.cfg.tenant_share_permille).div_ceil(1_000).max(1) as usize
    }

    /// Decide admission for one arriving request and count it as offered.
    /// `waiting` is the gate's current wait-room depth; both shed rules
    /// fire only while the room is actually contended — an idle server
    /// never sheds on a stale EWMA, and a lone tenant facing an empty
    /// wait room is admitted even past its fair share (refusing it would
    /// protect capacity nobody else is asking for).
    pub fn admit(&self, tenant: &str, waiting: usize, now_micros: u64) -> Admit {
        let mut s = self.lock();
        Self::roll_window(&mut s, now_micros);
        s.offered_in_window += 1;
        if waiting > 0
            && s.tenant_inflight.get(tenant).copied().unwrap_or(0) >= self.tenant_cap()
        {
            s.shed_in_window += 1;
            return Admit::Shed(SHED_TENANT_SHARE);
        }
        if s.shedding && waiting > 0 {
            s.shed_in_window += 1;
            return Admit::Shed(SHED_SOJOURN);
        }
        *s.tenant_inflight.entry(tenant.to_string()).or_insert(0) += 1;
        Admit::Ok
    }

    /// Count a shed decided outside [`OverloadControl::admit`] (gate
    /// saturation, queue-deadline expiry) into the shed rate.
    pub fn note_shed(&self, now_micros: u64) {
        let mut s = self.lock();
        Self::roll_window(&mut s, now_micros);
        s.shed_in_window += 1;
    }

    /// Release the admitted request's fair-share seat (call exactly once
    /// per [`Admit::Ok`], whatever happened after admission).
    pub fn release(&self, tenant: &str) {
        let mut s = self.lock();
        if let Some(n) = s.tenant_inflight.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                s.tenant_inflight.remove(tenant);
            }
        }
    }

    /// Record one slot-wait sojourn and run the CoDel-style state step.
    pub fn note_sojourn(&self, sojourn_micros: u64, now_micros: u64) {
        let mut s = self.lock();
        s.sojourn_ewma_micros = ewma(s.sojourn_ewma_micros, sojourn_micros);
        if s.sojourn_ewma_micros >= self.cfg.sojourn_target_micros {
            let above_since = *s.above_since_micros.get_or_insert(now_micros);
            if now_micros.saturating_sub(above_since) >= self.cfg.shed_interval_micros {
                s.shedding = true;
            }
        } else {
            s.above_since_micros = None;
            s.shedding = false;
        }
    }

    /// Record one permit-held service time (feeds the `Retry-After`
    /// estimate).
    pub fn note_service(&self, service_micros: u64) {
        let mut s = self.lock();
        s.service_ewma_micros = ewma(s.service_ewma_micros, service_micros);
    }

    /// The `Retry-After` to tell a shed client: current queue depth ×
    /// observed mean service time, rounded up to whole seconds and
    /// clamped to `[1, 30]`.
    pub fn retry_after_secs(&self, queue_depth: usize) -> u64 {
        let service = self.lock().service_ewma_micros;
        let wait_micros = (queue_depth as u64).saturating_mul(service);
        wait_micros.div_ceil(1_000_000).clamp(1, 30)
    }

    /// The composite pressure signal in milli-units: the last window's
    /// shed fraction (0–1000) plus sojourn normalized against its target
    /// (0–2000, saturating at 2× target).
    pub fn pressure_milli(&self, now_micros: u64) -> u64 {
        let mut s = self.lock();
        Self::roll_window(&mut s, now_micros);
        Self::pressure_of(&s, &self.cfg)
    }

    fn pressure_of(s: &ControlState, cfg: &OverloadConfig) -> u64 {
        let sojourn_milli = (s.sojourn_ewma_micros.saturating_mul(1_000)
            / cfg.sojourn_target_micros.max(1))
        .min(2_000);
        s.shed_permille + sojourn_milli
    }

    /// Re-evaluate brown-out against current pressure. Returns the
    /// engaged/disengaged state plus a transition to announce, if this
    /// call crossed a threshold. Hysteresis: enters at ≥
    /// `brownout_enter_milli`, exits below `brownout_exit_milli`.
    pub fn brownout(&self, now_micros: u64) -> (bool, Option<BrownoutTransition>) {
        let mut s = self.lock();
        Self::roll_window(&mut s, now_micros);
        let pressure = Self::pressure_of(&s, &self.cfg);
        let transition = if !s.brownout && pressure >= self.cfg.brownout_enter_milli {
            s.brownout = true;
            Some(BrownoutTransition::Entered { pressure_milli: pressure })
        } else if s.brownout && pressure < self.cfg.brownout_exit_milli {
            s.brownout = false;
            Some(BrownoutTransition::Exited { pressure_milli: pressure })
        } else {
            None
        };
        (s.brownout, transition)
    }

    /// Whether the controller is currently shedding (for stats).
    pub fn shedding(&self) -> bool {
        self.lock().shedding
    }
}

/// α = 1/8 exponentially weighted moving average, seeded by the first
/// sample.
fn ewma(prev: u64, sample: u64) -> u64 {
    if prev == 0 {
        sample
    } else {
        (prev * 7 + sample) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            sojourn_target_micros: 10_000,
            shed_interval_micros: 20_000,
            tenant_share_permille: 500,
            brownout_enter_milli: 1_500,
            brownout_exit_milli: 500,
        }
    }

    #[test]
    fn retry_after_clamps_to_the_lower_bound() {
        let c = OverloadControl::new(cfg(), 8);
        // No service observations at all: still at least 1 second.
        assert_eq!(c.retry_after_secs(0), 1);
        assert_eq!(c.retry_after_secs(100), 1);
        // Fast service, shallow queue: the product rounds up to 1.
        c.note_service(2_000); // 2ms
        assert_eq!(c.retry_after_secs(3), 1);
    }

    #[test]
    fn retry_after_clamps_to_the_upper_bound() {
        let c = OverloadControl::new(cfg(), 8);
        c.note_service(2_000_000); // 2s per request
        assert_eq!(c.retry_after_secs(1_000), 30);
    }

    #[test]
    fn retry_after_scales_with_depth_times_service() {
        let c = OverloadControl::new(cfg(), 8);
        c.note_service(500_000); // 0.5s
                                 // 8 queued × 0.5s = 4s of backlog.
        assert_eq!(c.retry_after_secs(8), 4);
    }

    #[test]
    fn persistent_sojourn_above_target_starts_shedding_and_recovers() {
        let c = OverloadControl::new(cfg(), 8);
        // One spike does not shed: above target but interval not elapsed.
        c.note_sojourn(50_000, 0);
        assert!(!c.shedding());
        assert_eq!(c.admit("a", 3, 1_000), Admit::Ok);
        // Sojourn stays above target past the interval: shedding begins.
        c.note_sojourn(50_000, 25_000);
        assert!(c.shedding());
        assert_eq!(c.admit("b", 3, 26_000), Admit::Shed("sojourn"));
        // …but only while the wait room is contended.
        assert_eq!(c.admit("b", 0, 27_000), Admit::Ok);
        // Sojourn recovers: shedding stops as soon as the EWMA decays
        // back under target.
        for _ in 0..16 {
            c.note_sojourn(0, 30_000);
        }
        assert!(!c.shedding());
        assert_eq!(c.admit("c", 3, 31_000), Admit::Ok);
    }

    #[test]
    fn one_hot_tenant_cannot_starve_the_rest() {
        let c = OverloadControl::new(cfg(), 8);
        // Share is 500‰ of an 8-seat wait room: 4 seats for one tenant.
        // The room is contended (waiters present) throughout.
        for _ in 0..4 {
            assert_eq!(c.admit("hot", 3, 0), Admit::Ok);
        }
        assert_eq!(c.admit("hot", 3, 0), Admit::Shed("tenant_share"));
        // A different tenant still gets in.
        assert_eq!(c.admit("cool", 3, 0), Admit::Ok);
        // Releasing a seat re-admits the hot tenant.
        c.release("hot");
        assert_eq!(c.admit("hot", 3, 0), Admit::Ok);
        // With the wait room empty, even an over-share tenant is
        // admitted: there is no one to be fair *to*.
        for _ in 0..3 {
            assert_eq!(c.admit("hot", 0, 0), Admit::Ok);
        }
    }

    #[test]
    fn brownout_engages_with_hysteresis() {
        let c = OverloadControl::new(cfg(), 8);
        let (on, t) = c.brownout(0);
        assert!(!on && t.is_none());
        // Drive sojourn to 2× target: pressure 2000 ≥ enter 1500.
        c.note_sojourn(40_000, 0);
        let (on, t) = c.brownout(1);
        assert!(on);
        assert!(
            matches!(t, Some(BrownoutTransition::Entered { pressure_milli }) if pressure_milli >= 1_500)
        );
        // Pressure still above the exit threshold: engaged, no repeat
        // enter event.
        for _ in 0..8 {
            c.note_sojourn(8_000, 2);
        }
        let (on, t) = c.brownout(3);
        assert!(on && t.is_none(), "hysteresis holds between thresholds");
        // Pressure under exit: disengages once.
        for _ in 0..16 {
            c.note_sojourn(0, 4);
        }
        let (on, t) = c.brownout(5);
        assert!(!on);
        assert!(matches!(t, Some(BrownoutTransition::Exited { .. })));
        let (_, t) = c.brownout(6);
        assert!(t.is_none(), "no repeated exit events");
    }

    #[test]
    fn shed_rate_feeds_pressure_through_the_rolling_window() {
        let mut config = cfg();
        // Neutralize the sojourn term.
        config.sojourn_target_micros = 1_000_000;
        let c = OverloadControl::new(config, 1);
        // Window 1: every second arrival of tenant "t" sheds on share
        // (the one-seat wait room stays contended).
        for i in 0..10 {
            if c.admit("t", 1, i) == Admit::Ok {
                // keep the seat: do not release, so the next admit sheds
            } else {
                c.release("t");
            }
        }
        // Roll the window: shed fraction materializes in pressure.
        let p = c.pressure_milli(SHED_WINDOW_MICROS + 1);
        assert!(p > 0, "shed fraction must surface in pressure, got {p}");
    }
}
