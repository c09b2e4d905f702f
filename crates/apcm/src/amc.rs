//! Link adaptation over `vran_net::amc`'s MCS table: selection, the
//! outer loop and its divergence guard, as [`crate::cellsim`] runs them.

use vran_net::amc::{McsEntry, MCS_TABLE};

/// Select the highest-throughput operating point for a reported SNR;
/// `None` when even the most robust point lacks margin.
pub fn select_mcs(snr_db: f32) -> Option<McsEntry> {
    MCS_TABLE
        .iter()
        .rev()
        .find(|e| snr_db >= e.min_snr_db)
        .copied()
}

/// Outer-loop link adaptation: nudge an SNR offset by decode outcomes
/// (the classic 10 %-BLER target controller).
#[derive(Debug, Clone, Copy)]
pub struct OuterLoop {
    offset_db: f32,
    step_up: f32,
    step_down: f32,
}

impl Default for OuterLoop {
    fn default() -> Self {
        // 10 % BLER target: down-step = 9 × up-step
        Self {
            offset_db: 0.0,
            step_up: 0.1,
            step_down: 0.9,
        }
    }
}

impl OuterLoop {
    /// Effective SNR to feed [`select_mcs`].
    pub fn adjusted(&self, measured_snr_db: f32) -> f32 {
        measured_snr_db + self.offset_db
    }

    /// Report a decode outcome; the offset creeps up on success and
    /// drops sharply on failure.
    pub fn report(&mut self, ok: bool) {
        if ok {
            self.offset_db = (self.offset_db + self.step_up).min(3.0);
        } else {
            self.offset_db = (self.offset_db - self.step_down).max(-10.0);
        }
    }

    /// Current offset (diagnostic).
    pub fn offset_db(&self) -> f32 {
        self.offset_db
    }
}

/// Outer-loop wrapper that adds a coarse MCS step-down under
/// *sustained* decode failure — the AMC half of the degradation ladder.
///
/// The plain [`OuterLoop`] converges on a 10 % BLER target, but its
/// −10 dB clamp means a collapsed channel (decoder divergence every
/// TTI) can pin the offset at the floor and keep hammering an operating
/// point that will never decode. The guard watches the same outcome
/// stream: `trip_after` consecutive failures knock an extra
/// `stepdown_db` off the effective offset (pushing [`select_mcs`] one
/// or more table rows down), repeatable down to `floor_db`;
/// `recover_after` consecutive successes walk one step back toward 0.
/// Step-downs are counted for metrics ([`Self::stepdowns`]).
#[derive(Debug, Clone, Copy)]
pub struct DivergenceGuard {
    inner: OuterLoop,
    /// Extra negative offset applied on top of the outer loop.
    extra_db: f32,
    /// Consecutive failures before a step-down.
    trip_after: u32,
    /// Consecutive successes before a step back up.
    recover_after: u32,
    /// dB removed per step-down.
    stepdown_db: f32,
    /// Most negative extra offset allowed.
    floor_db: f32,
    fail_streak: u32,
    ok_streak: u32,
    stepdowns: u64,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        // One MCS table row is ~3.5 dB wide, so each 3 dB step lands
        // roughly one row down; the floor spans the whole table.
        Self {
            inner: OuterLoop::default(),
            extra_db: 0.0,
            trip_after: 12,
            recover_after: 64,
            stepdown_db: 3.0,
            floor_db: -12.0,
            fail_streak: 0,
            ok_streak: 0,
            stepdowns: 0,
        }
    }
}

impl DivergenceGuard {
    /// Effective SNR to feed [`select_mcs`] (outer loop plus guard).
    pub fn adjusted(&self, measured_snr_db: f32) -> f32 {
        measured_snr_db + self.offset_db()
    }

    /// Report a decode outcome; drives both the wrapped outer loop and
    /// the step-down streak counters.
    pub fn report(&mut self, ok: bool) {
        self.inner.report(ok);
        if ok {
            self.fail_streak = 0;
            if self.extra_db < 0.0 {
                self.ok_streak += 1;
                if self.ok_streak >= self.recover_after {
                    self.ok_streak = 0;
                    self.extra_db = (self.extra_db + self.stepdown_db).min(0.0);
                }
            }
        } else {
            self.ok_streak = 0;
            self.fail_streak += 1;
            if self.fail_streak >= self.trip_after {
                self.fail_streak = 0;
                if self.extra_db > self.floor_db {
                    self.extra_db = (self.extra_db - self.stepdown_db).max(self.floor_db);
                    self.stepdowns += 1;
                }
            }
        }
    }

    /// Combined offset: outer-loop offset plus the guard's step-downs.
    pub fn offset_db(&self) -> f32 {
        self.inner.offset_db() + self.extra_db
    }

    /// MCS step-downs taken since construction.
    pub fn stepdowns(&self) -> u64 {
        self.stepdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_phy::modulation::Modulation;

    #[test]
    fn selection_picks_the_highest_feasible() {
        assert_eq!(select_mcs(-5.0), None);
        assert_eq!(select_mcs(0.0).unwrap().rate_x1024, 3072);
        assert_eq!(select_mcs(0.0).unwrap().modulation, Modulation::Qpsk);
        let top = select_mcs(30.0).unwrap();
        assert_eq!(top.modulation, Modulation::Qam64);
        assert_eq!(top.rate_x1024, 2048);
        // boundary behavior
        assert_eq!(select_mcs(9.5).unwrap().modulation, Modulation::Qam16);
        assert_eq!(select_mcs(9.49).unwrap().rate_x1024, 3072);
    }

    #[test]
    fn outer_loop_backs_off_on_failures() {
        let mut ol = OuterLoop::default();
        for _ in 0..20 {
            ol.report(true);
        }
        let up = ol.offset_db();
        assert!(up > 1.0);
        ol.report(false);
        assert!(ol.offset_db() < up - 0.5, "one failure must bite hard");
        for _ in 0..100 {
            ol.report(false);
        }
        assert!(ol.offset_db() >= -10.0, "offset must be bounded");
    }

    #[test]
    fn divergence_guard_steps_down_under_sustained_failure() {
        let mut g = DivergenceGuard::default();
        // Below the trip threshold nothing extra happens.
        for _ in 0..11 {
            g.report(false);
        }
        assert_eq!(g.stepdowns(), 0);
        g.report(true); // break the streak
        for _ in 0..12 {
            g.report(false);
        }
        assert_eq!(g.stepdowns(), 1, "12 consecutive failures step down");
        let stepped = g.offset_db();
        // The guard pushes past the outer loop's own clamp.
        let mut plain = OuterLoop::default();
        for _ in 0..11 {
            plain.report(false);
        }
        plain.report(true);
        for _ in 0..12 {
            plain.report(false);
        }
        assert!(stepped < plain.offset_db() - 2.5, "guard adds ≥ one step");
        // Step-downs are bounded by the floor.
        for _ in 0..500 {
            g.report(false);
        }
        assert!(g.offset_db() >= -10.0 - 12.0 - 1e-6);
        assert_eq!(g.stepdowns(), 4, "floor caps the ladder at 12 dB");
        // Sustained success walks back up.
        let floor = g.offset_db();
        for _ in 0..64 {
            g.report(true);
        }
        assert!(g.offset_db() > floor + 2.5, "recovery restores a step");
    }
}
