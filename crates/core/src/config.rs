//! SCOUT configuration.

use scout_geometry::Simplification;

/// Multi-candidate prefetching strategy (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// §5.2.1: pick one candidate at random and spend the whole window on
    /// it. Correct with probability 1/|C|; high variance.
    Deep,
    /// §5.2.2 with plausibility ordering: prefetch at every candidate
    /// location, most plausible structure first, so the window is spent
    /// where the user is most likely headed — the default.
    #[default]
    Broad,
    /// §5.2.2 verbatim: give all candidate locations equal weight by
    /// interleaving their incremental queries (same expected accuracy as
    /// Deep, lower variance). Kept for the strategy ablation benchmark.
    BroadEqual,
}

/// Tuning knobs of the SCOUT prefetcher.
#[derive(Debug, Clone, Copy)]
pub struct ScoutConfig {
    /// Total grid-hashing cells per query region (§4.2). Figure 13e sweeps
    /// 32768 … 8; the paper's strategy "is to use a fine resolution and
    /// work with \[a\] sparser approximate graph".
    pub grid_resolution: u32,
    /// Geometry simplification used for cell mapping (§4.2); the paper
    /// reduces cylinders to their axis segment.
    pub simplification: Simplification,
    /// Deep vs broad prefetching.
    pub strategy: Strategy,
    /// Maximum prefetch locations `d`; beyond this, exit locations are
    /// k-means-clustered (§5.2.2: "it is necessary to limit the number of
    /// structures considered for prefetching").
    pub max_prefetch_locations: usize,
    /// Number of growing incremental prefetch queries per location (§5.1).
    pub incremental_steps: usize,
    // Read by nothing. Pinned by `benchmark/src/adapter.rs` line 862, which
    // a non-`benchmark` PR may not edit; ROADMAP item 1(b) removes it.
    #[doc(hidden)]
    pub incremental_overlap_threshold: f64,
    /// Seed for the strategy's random choices (deep picks, k-means init).
    pub seed: u64,
}

impl Default for ScoutConfig {
    fn default() -> Self {
        ScoutConfig {
            grid_resolution: 32_768,
            simplification: Simplification::Segment,
            strategy: Strategy::Broad,
            max_prefetch_locations: 8,
            incremental_steps: 5,
            incremental_overlap_threshold: 0.5,
            seed: 0xC0FFEE,
        }
    }
}

impl ScoutConfig {
    /// The default configuration with a specific RNG seed. Multi-session
    /// runs give every session's SCOUT its own seed so the fleet is
    /// decorrelated yet reproducible.
    pub fn with_seed(seed: u64) -> ScoutConfig {
        ScoutConfig { seed, ..ScoutConfig::default() }
    }
}
