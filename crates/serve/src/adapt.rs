//! Adaptive dispatch: the per-shard retune controller that closes the
//! density → group-size feedback loop.
//!
//! The paper's result is that the *right* interleave group size
//! depends on how much of a lookup's probe work actually misses
//! cache. Two signals measure that at serve time: the plan stage's
//! **delta-decided density** (keys answered out of the delta never
//! reach the engine, so they contribute no miss for an extra stream
//! to hide) and the backend's **cache-residency hint**
//! ([`ShardBackend::hint_density`](isi_core::backend::ShardBackend::hint_density)
//! — real probes that would complete without stalling). PR 8 exposed
//! both as diagnostics; this module feeds them back: every
//! [`ServeConfig::retune_interval`](crate::service::ServeConfig)
//! dispatched read runs, the shard's [`Controller`] recomputes the
//! group with
//! [`group_for_density`](isi_search::autotune::group_for_density) and
//! the shard's token holder publishes it through the shard's
//! [`PolicyCell`](isi_core::policy::PolicyCell) — a single-word
//! atomic, so a mid-run retune can never tear the policy a dispatched
//! batch snapshots (the `isi_check` `policy` model proves the shape).
//!
//! The two densities compose as independent "this probe won't miss"
//! probabilities: a key fails to produce a hideable miss if the delta
//! decides it *or* (it reaches the engine *and* its probe path is
//! resident), i.e. `d = d_delta + (1 − d_delta) · d_hint`.
//!
//! The controller is deliberately allocation-free: the window is two
//! `u64` accumulators, the hint sample is a bounded prefix of the
//! run's own key buffer, and the publish is one atomic store — see
//! `tests/alloc_adapt.rs`.

use isi_core::policy::Interleave;
use isi_search::autotune::{density_for_counts, group_for_density};

/// How a shard's runner picks the interleave policy for each read run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adapt {
    /// Dispatch every run with `ServeConfig::policy`, forever —
    /// exactly the pre-adaptive behavior. The policy cell is seeded
    /// once and never republished; `retunes` stays 0.
    Off,
    /// Pin this group size (normalized through
    /// [`Interleave::from_group`], so 0/1 mean sequential) regardless
    /// of `ServeConfig::policy`; never retunes. Useful for A/B cells.
    Fixed(usize),
    /// Close the loop: retune every
    /// [`retune_interval`](crate::service::ServeConfig::retune_interval)
    /// dispatched read runs from observed density, clamped to
    /// `[1, policy.group_or_one()]`.
    Auto,
}

impl Adapt {
    /// Stable name for CLI flags and bench documents.
    pub fn name(self) -> &'static str {
        match self {
            Adapt::Off => "off",
            Adapt::Fixed(_) => "fixed",
            Adapt::Auto => "auto",
        }
    }

    /// Parse a [`Self::name`] back into a mode. `Fixed` carries a
    /// group and has no bare-name form, so only `"off"` and `"auto"`
    /// round-trip — the two modes sweeps and CLI flags speak.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(Adapt::Off),
            "auto" => Some(Adapt::Auto),
            _ => None,
        }
    }
}

/// Upper bound on the keys sampled from a run for the residency hint:
/// the hint walk probes a binary-search path per key, so the sample
/// must stay small enough to disappear next to the run it rode in on.
pub(crate) const HINT_SAMPLE: usize = 16;

/// Per-shard retune state: a window of observed read-run counters
/// and the cadence bookkeeping. Exactly one controller per shard,
/// part of its executor token — whoever holds the token is the only
/// thread touching it, so no synchronization, no allocation.
pub(crate) struct Controller {
    mode: Adapt,
    interval: usize,
    /// The calibrated ceiling: `ServeConfig::policy.group_or_one()`.
    calibrated: usize,
    /// Dispatched read runs since the last retune.
    runs: usize,
    window_delta_hits: u64,
    window_lookups: u64,
}

impl Controller {
    pub(crate) fn new(mode: Adapt, interval: usize, calibrated: usize) -> Self {
        Self {
            mode,
            interval,
            calibrated: calibrated.max(1),
            runs: 0,
            window_delta_hits: 0,
            window_lookups: 0,
        }
    }

    /// The policy a shard's cell is seeded with before any retune.
    pub(crate) fn initial_policy(mode: Adapt, configured: Interleave) -> Interleave {
        match mode {
            Adapt::Off | Adapt::Auto => configured,
            Adapt::Fixed(g) => Interleave::from_group(g),
        }
    }

    /// Account one dispatched read run. Returns `true` when the
    /// controller is due to retune (only ever in [`Adapt::Auto`]) —
    /// the caller then computes the hint and calls [`retune`].
    ///
    /// [`retune`]: Controller::retune
    pub(crate) fn observe_run(&mut self, delta_hits: u64, engine_lookups: u64) -> bool {
        if self.mode != Adapt::Auto {
            return false;
        }
        self.window_delta_hits += delta_hits;
        self.window_lookups += engine_lookups;
        self.runs += 1;
        self.runs >= self.interval
    }

    /// Fold the window's delta density with the backend's residency
    /// hint and produce the next group size; resets the window. The
    /// zero-traffic window degrades to the calibrated group through
    /// [`density_for_counts`] (0/0 is "assume misses", never NaN).
    pub(crate) fn retune(&mut self, hint: f64) -> usize {
        let d_delta = density_for_counts(self.window_delta_hits, self.window_lookups);
        let hint = if hint.is_nan() {
            0.0
        } else {
            hint.clamp(0.0, 1.0)
        };
        // Independent-signals blend: a probe produces no hideable miss
        // if the delta decided it, or it reached the engine but its
        // path was already resident.
        let density = d_delta + (1.0 - d_delta) * hint;
        self.runs = 0;
        self.window_delta_hits = 0;
        self.window_lookups = 0;
        group_for_density(self.calibrated, density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_and_fixed_never_come_due() {
        let mut off = Controller::new(Adapt::Off, 1, 8);
        let mut fixed = Controller::new(Adapt::Fixed(3), 1, 8);
        for _ in 0..100 {
            assert!(!off.observe_run(50, 50));
            assert!(!fixed.observe_run(50, 50));
        }
    }

    #[test]
    fn auto_comes_due_on_the_interval() {
        let mut ctl = Controller::new(Adapt::Auto, 4, 8);
        for _ in 0..3 {
            assert!(!ctl.observe_run(0, 10));
        }
        assert!(ctl.observe_run(0, 10));
        // Retuning resets the window and the cadence.
        assert_eq!(ctl.retune(0.0), 8);
        assert!(!ctl.observe_run(0, 10));
    }

    #[test]
    fn retune_tracks_the_window_density() {
        let mut ctl = Controller::new(Adapt::Auto, 1, 8);
        // Cold window: all engine lookups, no hint — keep calibration.
        assert!(ctl.observe_run(0, 100));
        assert_eq!(ctl.retune(0.0), 8);
        // Half the keys delta-decided: half the streams still pay.
        assert!(ctl.observe_run(50, 50));
        assert_eq!(ctl.retune(0.0), 4);
        // All-delta window: a single stream suffices.
        assert!(ctl.observe_run(100, 0));
        assert_eq!(ctl.retune(0.0), 1);
        // Empty window (writes only, say): zero denominator must keep
        // the calibrated group, not propagate 0/0.
        assert!(ctl.observe_run(0, 0));
        assert_eq!(ctl.retune(0.0), 8);
    }

    #[test]
    fn hint_blends_as_an_independent_signal() {
        let mut ctl = Controller::new(Adapt::Auto, 1, 8);
        // No delta decisions, everything resident: sequential.
        assert!(ctl.observe_run(0, 100));
        assert_eq!(ctl.retune(1.0), 1);
        // Half delta-decided and half of the residual resident:
        // d = 0.5 + 0.5·0.5 = 0.75 → ceil(8 · 0.25) = 2.
        assert!(ctl.observe_run(50, 50));
        assert_eq!(ctl.retune(0.5), 2);
        // Garbage hints clamp instead of poisoning the group.
        assert!(ctl.observe_run(0, 100));
        assert_eq!(ctl.retune(f64::NAN), 8);
        assert!(ctl.observe_run(0, 100));
        assert_eq!(ctl.retune(-2.0), 8);
        assert!(ctl.observe_run(0, 100));
        assert_eq!(ctl.retune(9.0), 1);
    }

    #[test]
    fn initial_policy_per_mode() {
        let six = Interleave::from_group(6);
        assert_eq!(Controller::initial_policy(Adapt::Off, six), six);
        assert_eq!(Controller::initial_policy(Adapt::Auto, six), six);
        assert_eq!(
            Controller::initial_policy(Adapt::Fixed(3), six),
            Interleave::from_group(3)
        );
        // Degenerate fixed groups normalize to sequential.
        assert_eq!(
            Controller::initial_policy(Adapt::Fixed(0), six),
            Interleave::Sequential
        );
    }

    #[test]
    fn adapt_names_are_stable() {
        assert_eq!(Adapt::Off.name(), "off");
        assert_eq!(Adapt::Auto.name(), "auto");
        assert_eq!(Adapt::Fixed(4).name(), "fixed");
        assert_eq!(Adapt::from_name("off"), Some(Adapt::Off));
        assert_eq!(Adapt::from_name("auto"), Some(Adapt::Auto));
        assert_eq!(Adapt::from_name("fixed"), None);
        assert_eq!(Adapt::from_name("bogus"), None);
    }
}
