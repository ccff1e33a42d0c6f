//! Online feedback control for the hybrid prefetcher.
//!
//! The hybrid merges two prediction sources — SCOUT's structure following
//! and the Markov model's history following — and neither is uniformly
//! better: structure wins on fresh exploration, history wins on revisit
//! loops and teleports. The [`FeedbackController`] closes the loop at run
//! time: after every query it receives each source's *coverage* of the
//! result that actually materialized (the fraction of the query's pages
//! that source had predicted), smooths the signals with EWMAs, and derives
//!
//! * the **budget split** ([`FeedbackController::markov_share`]) — the
//!   fraction of the hybrid's explicit page budget handed to the Markov
//!   side, proportional to its share of recent precision;
//! * the **arbitration order** ([`FeedbackController::markov_leads`]) —
//!   which source spends the prefetch window first;
//! * the **aggressiveness** ([`FeedbackController::aggressiveness`]) — a
//!   scale on the staged page volume, grown when predictions are landing
//!   and shrunk when they are not, so an unpredictable phase wastes less
//!   window on speculative I/O.
//!
//! The controller is plain deterministic state: same observation sequence,
//! same decisions, on every schedule.

/// EWMA smoothing factor for the per-source coverage signals, in (0, 1].
/// Higher adapts faster; 1 would keep only the latest query.
const ALPHA: f64 = 0.35;
/// Lower bound of the Markov budget share: keeps a small exploration
/// budget flowing to the history side even when it has not scored yet
/// (it cannot earn precision on zero predictions).
const MIN_MARKOV_SHARE: f64 = 0.15;
/// Upper bound of the Markov budget share: SCOUT's structural predictions
/// are never starved completely.
const MAX_MARKOV_SHARE: f64 = 0.9;
/// Aggressiveness when nothing is landing (scales staged page volume).
const MIN_AGGRESSIVENESS: f64 = 0.5;
/// Aggressiveness when predictions land reliably.
pub(crate) const MAX_AGGRESSIVENESS: f64 = 1.5;
/// Prior coverage credited to SCOUT: optimistic, because the structural
/// method works from the very first query.
const INITIAL_SCOUT: f64 = 0.5;
/// Prior coverage credited to the Markov side: pessimistic, because a
/// cold history model cannot predict anything yet.
const INITIAL_MARKOV: f64 = 0.05;

/// The online controller: per-source coverage EWMAs plus the derived
/// budget split, ordering and aggressiveness.
#[derive(Debug, Clone)]
pub struct FeedbackController {
    scout_ewma: f64,
    markov_ewma: f64,
    /// EWMA of the better source's coverage — how predictable the workload
    /// currently is at all (drives aggressiveness).
    overall_ewma: f64,
    observations: u64,
}

impl FeedbackController {
    /// A controller at the priors.
    pub(crate) fn new() -> FeedbackController {
        FeedbackController {
            scout_ewma: INITIAL_SCOUT,
            markov_ewma: INITIAL_MARKOV,
            overall_ewma: INITIAL_SCOUT,
            observations: 0,
        }
    }

    /// Feeds one query's per-source coverage (fraction of the query's
    /// result pages that source had predicted, in [0, 1]). `None` means
    /// the source staged no prediction for this query — its EWMA is left
    /// untouched rather than punished for abstaining.
    pub(crate) fn observe(&mut self, scout_coverage: Option<f64>, markov_coverage: Option<f64>) {
        let a = ALPHA;
        let clamp = |x: f64| if x.is_finite() { x.clamp(0.0, 1.0) } else { 0.0 };
        if let Some(s) = scout_coverage {
            self.scout_ewma = a * clamp(s) + (1.0 - a) * self.scout_ewma;
        }
        if let Some(m) = markov_coverage {
            self.markov_ewma = a * clamp(m) + (1.0 - a) * self.markov_ewma;
        }
        let best = match (scout_coverage, markov_coverage) {
            (Some(s), Some(m)) => Some(clamp(s).max(clamp(m))),
            (Some(s), None) => Some(clamp(s)),
            (None, Some(m)) => Some(clamp(m)),
            (None, None) => None,
        };
        if let Some(b) = best {
            self.overall_ewma = a * b + (1.0 - a) * self.overall_ewma;
        }
        self.observations += 1;
    }

    /// Smoothed coverage of the structure source.
    pub fn scout_precision(&self) -> f64 {
        self.scout_ewma
    }

    /// Smoothed coverage of the history source.
    pub fn markov_precision(&self) -> f64 {
        self.markov_ewma
    }

    /// Fraction of the explicit page budget handed to the Markov side:
    /// its share of the two sources' recent precision, clamped to
    /// [0.15, 0.9].
    pub fn markov_share(&self) -> f64 {
        let total = self.scout_ewma + self.markov_ewma;
        let share = if total <= 1e-12 { 0.5 } else { self.markov_ewma / total };
        share.clamp(MIN_MARKOV_SHARE, MAX_MARKOV_SHARE)
    }

    /// Whether the history side's staged pages should spend the prefetch
    /// window before SCOUT's structural requests.
    pub(crate) fn markov_leads(&self) -> bool {
        self.markov_ewma > self.scout_ewma
    }

    /// Scale on the staged page volume, interpolated between 0.5 and 1.5
    /// by how well the better source has been landing.
    pub fn aggressiveness(&self) -> f64 {
        MIN_AGGRESSIVENESS + self.overall_ewma * (MAX_AGGRESSIVENESS - MIN_AGGRESSIVENESS)
    }

    /// Queries observed since the last reset.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Back to the priors (start of a fresh sequence).
    pub(crate) fn reset(&mut self) {
        *self = FeedbackController::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_scout_leading() {
        let c = FeedbackController::new();
        assert!(!c.markov_leads());
        assert!(c.markov_share() < 0.5);
        assert_eq!(c.observations(), 0);
    }

    #[test]
    fn sustained_markov_hits_shift_share_and_lead() {
        let mut c = FeedbackController::new();
        for _ in 0..12 {
            c.observe(Some(0.2), Some(0.95));
        }
        assert!(c.markov_leads());
        assert!(c.markov_share() > 0.6, "share {}", c.markov_share());
        // Landing predictions raise aggressiveness above neutral.
        assert!(c.aggressiveness() > 1.0);
    }

    #[test]
    fn absent_source_is_not_punished() {
        let mut c = FeedbackController::new();
        let before = c.markov_precision();
        c.observe(Some(0.8), None);
        assert_eq!(c.markov_precision(), before);
        assert!(c.scout_precision() > INITIAL_SCOUT);
    }

    #[test]
    fn share_respects_bounds() {
        let mut c = FeedbackController::new();
        for _ in 0..50 {
            c.observe(Some(0.0), Some(1.0));
        }
        assert!(c.markov_share() <= MAX_MARKOV_SHARE + 1e-12);
        for _ in 0..100 {
            c.observe(Some(1.0), Some(0.0));
        }
        assert!(c.markov_share() >= MIN_MARKOV_SHARE - 1e-12);
    }

    #[test]
    fn unpredictable_phase_lowers_aggressiveness() {
        let mut c = FeedbackController::new();
        for _ in 0..20 {
            c.observe(Some(0.0), Some(0.0));
        }
        assert!(c.aggressiveness() < 0.6, "aggr {}", c.aggressiveness());
    }

    #[test]
    fn reset_restores_priors() {
        let mut c = FeedbackController::new();
        c.observe(Some(1.0), Some(1.0));
        c.reset();
        assert_eq!(c.scout_precision(), INITIAL_SCOUT);
        assert_eq!(c.markov_precision(), INITIAL_MARKOV);
        assert_eq!(c.observations(), 0);
    }

    #[test]
    fn non_finite_coverage_is_clamped() {
        let mut c = FeedbackController::new();
        c.observe(Some(f64::NAN), Some(f64::INFINITY));
        assert!(c.scout_precision().is_finite());
        assert!(c.markov_precision().is_finite() && c.markov_precision() <= 1.0);
    }
}
