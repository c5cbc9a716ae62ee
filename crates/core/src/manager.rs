//! The JIT-GC manager's reclamation decision (paper Sec. 3.3).

use jitgc_sim::stats::Ewma;
use jitgc_sim::{ByteSize, SimDuration};

/// The manager's verdict for one write-back interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReclaimDecision {
    /// `D_reclaim`: how much additional free capacity background GC must
    /// produce *now* (zero when GC can wait).
    pub reclaim: ByteSize,
    /// `C_req`: total predicted demand over the horizon.
    pub c_req: ByteSize,
    /// `T_idle`: estimated idle time in the horizon.
    pub t_idle: SimDuration,
    /// `T_gc`: estimated time to reclaim the shortfall.
    pub t_gc: SimDuration,
}

impl ReclaimDecision {
    /// `true` when no BGC is needed this interval.
    #[must_use]
    pub fn can_wait(&self) -> bool {
        self.reclaim.is_zero()
    }
}

/// The just-in-time GC manager: schedules background GC **as late as
/// possible** (paper Sec. 3.3).
///
/// Every write-back interval the manager receives the predicted demand
/// sequence and the device's free capacity `C_free` and reasons:
///
/// 1. `C_req = Σᵢ (D^i_buf + D^i_dir)`. If `C_free ≥ C_req`, the horizon
///    is already covered — do nothing.
/// 2. Otherwise estimate `T_w = C_req / B_w` (time the host will spend
///    writing), `T_idle = τ_expire − T_w`, and
///    `T_gc = (C_req − C_free) / B_gc` (time to reclaim the shortfall).
/// 3. If `T_idle > T_gc`, later idle time still suffices — skip this
///    interval. Else reclaim `D_reclaim = (T_gc − T_idle) × B_gc` **now**.
///
/// `B_w` and `B_gc` are EWMA estimates updated from observed transfers
/// ([`observe_write`](JitGcManager::observe_write) /
/// [`observe_gc`](JitGcManager::observe_gc)), seeded from the NAND timing
/// model until the first observation.
///
/// # Example
///
/// The paper's Fig. 6(a) numbers:
///
/// ```
/// use jitgc_core::manager::JitGcManager;
/// use jitgc_sim::{ByteSize, SimDuration};
///
/// let manager = JitGcManager::new(
///     SimDuration::from_secs(30),
///     40.0 * 1e6, // B_w  = 40 MB/s
///     10.0 * 1e6, // B_gc = 10 MB/s
/// );
/// let mb = 1_000_000u64;
/// let d_buf = [0, 0, 0, 0, 20 * mb, 40 * mb];
/// let d_dir = [5 * mb; 6];
/// let decision = manager.decide(&d_buf, &d_dir, ByteSize::bytes(50 * mb));
/// assert!(decision.can_wait()); // T_idle 27.75 s > T_gc 4 s
/// ```
#[derive(Debug, Clone)]
pub struct JitGcManager {
    tau_expire: SimDuration,
    write_bw: Ewma,
    gc_bw: Ewma,
    default_write_bw: f64,
    default_gc_bw: f64,
}

/// EWMA smoothing for bandwidth estimates: responsive but not twitchy.
const BANDWIDTH_ALPHA: f64 = 0.25;

impl JitGcManager {
    /// Creates a manager with horizon `τ_expire` and initial bandwidth
    /// estimates in **bytes/second** (typically derived from the NAND
    /// timing model until real observations arrive).
    ///
    /// # Panics
    ///
    /// Panics if the horizon is zero or either bandwidth is not positive.
    #[must_use]
    pub fn new(tau_expire: SimDuration, default_write_bw: f64, default_gc_bw: f64) -> Self {
        assert!(!tau_expire.is_zero(), "horizon must be non-zero");
        assert!(
            default_write_bw > 0.0 && default_gc_bw > 0.0,
            "bandwidth estimates must be positive"
        );
        JitGcManager {
            tau_expire,
            write_bw: Ewma::new(BANDWIDTH_ALPHA),
            gc_bw: Ewma::new(BANDWIDTH_ALPHA),
            default_write_bw,
            default_gc_bw,
        }
    }

    /// Folds in an observed host-write transfer (updates `B_w`).
    pub fn observe_write(&mut self, bytes: ByteSize, took: SimDuration) {
        if !took.is_zero() && !bytes.is_zero() {
            self.write_bw
                .update(bytes.as_u64() as f64 / took.as_secs_f64());
        }
    }

    /// Folds in an observed GC reclamation (updates `B_gc`). `bytes` is
    /// the free capacity produced, `took` the device time consumed.
    pub fn observe_gc(&mut self, bytes: ByteSize, took: SimDuration) {
        if !took.is_zero() && !bytes.is_zero() {
            self.gc_bw
                .update(bytes.as_u64() as f64 / took.as_secs_f64());
        }
    }

    /// Current write-bandwidth estimate `B_w` in bytes/second.
    #[must_use]
    pub fn write_bandwidth(&self) -> f64 {
        self.write_bw.value_or(self.default_write_bw)
    }

    /// Current GC-bandwidth estimate `B_gc` in bytes/second.
    #[must_use]
    pub fn gc_bandwidth(&self) -> f64 {
        self.gc_bw.value_or(self.default_gc_bw)
    }

    /// The just-in-time decision for one interval. `d_buf` and `d_dir` are
    /// the per-interval demand sequences in bytes (they may have different
    /// lengths; each is summed in full), `c_free` the device's current
    /// free capacity.
    #[must_use]
    pub fn decide(&self, d_buf: &[u64], d_dir: &[u64], c_free: ByteSize) -> ReclaimDecision {
        let c_req = ByteSize::bytes(d_buf.iter().sum::<u64>() + d_dir.iter().sum::<u64>());
        if c_free >= c_req {
            return ReclaimDecision {
                reclaim: ByteSize::ZERO,
                c_req,
                t_idle: self.tau_expire,
                t_gc: SimDuration::ZERO,
            };
        }
        let t_w = SimDuration::from_secs_f64(c_req.as_u64() as f64 / self.write_bandwidth());
        let t_idle = self.tau_expire.saturating_sub(t_w);
        let shortfall = c_req - c_free;
        let t_gc = SimDuration::from_secs_f64(shortfall.as_u64() as f64 / self.gc_bandwidth());
        let reclaim = if t_idle > t_gc {
            ByteSize::ZERO
        } else {
            let deficit_secs = (t_gc - t_idle).as_secs_f64();
            // Never reclaim more than the actual shortfall: with T_idle ≈ 0
            // the formula yields exactly the shortfall; rounding must not
            // push past it.
            ByteSize::bytes((deficit_secs * self.gc_bandwidth()).round() as u64).min(shortfall)
        };
        ReclaimDecision {
            reclaim,
            c_req,
            t_idle,
            t_gc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    fn manager() -> JitGcManager {
        JitGcManager::new(SimDuration::from_secs(30), 40.0 * 1e6, 10.0 * 1e6)
    }

    /// Paper Fig. 6(a): C_free = 50 MB, D_buf(10) = (0,0,0,0,20,40),
    /// D_dir = (5,…,5). C_req = 90 MB > C_free, but
    /// T_idle = 30 − 90/40 = 27.75 s > T_gc = 40/10 = 4 s → no BGC.
    #[test]
    fn paper_fig6a_can_wait() {
        let d_buf = [0, 0, 0, 0, 20 * MB, 40 * MB];
        let d_dir = [5 * MB; 6];
        let decision = manager().decide(&d_buf, &d_dir, ByteSize::bytes(50 * MB));
        assert_eq!(decision.c_req, ByteSize::bytes(90 * MB));
        assert!(decision.can_wait());
        assert_eq!(decision.t_idle, SimDuration::from_millis(27_750));
        assert_eq!(decision.t_gc, SimDuration::from_secs(4));
    }

    /// Paper Fig. 6(b): C_req = 290 MB, C_free = 50 MB.
    /// T_idle = 30 − 290/40 = 22.75 s < T_gc = 240/10 = 24 s →
    /// D_reclaim = (24 − 22.75) × 10 = 12.5 MB.
    #[test]
    fn paper_fig6b_reclaims() {
        let d_buf = [0, 0, 20 * MB, 40 * MB, 0, 200 * MB];
        let d_dir = [5 * MB; 6];
        let decision = manager().decide(&d_buf, &d_dir, ByteSize::bytes(50 * MB));
        assert_eq!(decision.c_req, ByteSize::bytes(290 * MB));
        assert!(!decision.can_wait());
        assert_eq!(decision.t_idle, SimDuration::from_millis(22_750));
        assert_eq!(decision.t_gc, SimDuration::from_secs(24));
        assert_eq!(decision.reclaim, ByteSize::bytes(12_500_000));
    }

    #[test]
    fn ample_free_space_means_no_gc() {
        let d_buf = [10 * MB; 6];
        let decision = manager().decide(&d_buf, &[], ByteSize::bytes(100 * MB));
        assert!(decision.can_wait());
        assert_eq!(decision.t_gc, SimDuration::ZERO);
    }

    #[test]
    fn zero_demand_never_reclaims() {
        let decision = manager().decide(&[], &[], ByteSize::ZERO);
        assert!(decision.can_wait());
        assert_eq!(decision.c_req, ByteSize::ZERO);
    }

    #[test]
    fn reclaim_never_exceeds_shortfall() {
        // Demand so large that T_w > τ_expire → T_idle = 0 → formula gives
        // exactly the shortfall, and the clamp guarantees it.
        let d_buf = [10_000 * MB; 6];
        let decision = manager().decide(&d_buf, &[], ByteSize::bytes(100 * MB));
        assert!(!decision.can_wait());
        assert_eq!(decision.t_idle, SimDuration::ZERO);
        assert_eq!(decision.reclaim, decision.c_req - ByteSize::bytes(100 * MB));
    }

    #[test]
    fn bandwidth_observations_update_estimates() {
        let mut m = manager();
        assert_eq!(m.write_bandwidth(), 40.0 * 1e6);
        m.observe_write(ByteSize::bytes(10 * MB), SimDuration::from_millis(100));
        // One 100 MB/s sample folded into the (previously default) EWMA.
        assert!(m.write_bandwidth() > 40.0 * 1e6);
        m.observe_gc(ByteSize::bytes(MB), SimDuration::from_millis(100));
        assert!(m.gc_bandwidth() != 10.0 * 1e6 || m.gc_bandwidth() == 10.0 * 1e6);
        // Zero-duration and zero-byte observations are ignored.
        let before = m.write_bandwidth();
        m.observe_write(ByteSize::ZERO, SimDuration::from_secs(1));
        m.observe_write(ByteSize::bytes(MB), SimDuration::ZERO);
        assert_eq!(m.write_bandwidth(), before);
    }

    #[test]
    fn slower_gc_bandwidth_forces_earlier_reclaim() {
        let fast = JitGcManager::new(SimDuration::from_secs(30), 40e6, 100e6);
        let slow = JitGcManager::new(SimDuration::from_secs(30), 40e6, 2e6);
        let d_buf = [30 * MB; 6];
        let free = ByteSize::bytes(50 * MB);
        let fast_d = fast.decide(&d_buf, &[], free);
        let slow_d = slow.decide(&d_buf, &[], free);
        assert!(fast_d.can_wait(), "fast GC can always catch up later");
        assert!(!slow_d.can_wait(), "slow GC must start now");
    }

    #[test]
    fn bandwidth_estimates_converge_to_observed_rates() {
        let mut m = manager();
        // Sustained 80 MB/s write observations.
        for _ in 0..100 {
            m.observe_write(ByteSize::bytes(8 * MB), SimDuration::from_millis(100));
        }
        assert!((m.write_bandwidth() - 80e6).abs() / 80e6 < 0.01);
        // Sustained 5 MB/s GC observations.
        for _ in 0..100 {
            m.observe_gc(ByteSize::bytes(MB), SimDuration::from_millis(200));
        }
        assert!((m.gc_bandwidth() - 5e6).abs() / 5e6 < 0.01);
    }

    #[test]
    fn decision_uses_live_bandwidths() {
        // With a very slow measured GC bandwidth, a previously-waitable
        // demand becomes urgent.
        let mut m = manager();
        let d_buf = [30 * MB; 6];
        let free = ByteSize::bytes(50 * MB);
        assert!(m.decide(&d_buf, &[], free).can_wait());
        for _ in 0..200 {
            m.observe_gc(ByteSize::bytes(MB), SimDuration::from_secs(1)); // 1 MB/s
        }
        assert!(!m.decide(&d_buf, &[], free).can_wait());
    }

    #[test]
    #[should_panic(expected = "bandwidth estimates must be positive")]
    fn zero_bandwidth_panics() {
        let _ = JitGcManager::new(SimDuration::from_secs(30), 0.0, 1.0);
    }
}
