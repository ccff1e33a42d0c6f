//! Tier-1 versions of the full-scale `follow`/`gaps` beds (`scout-benchmark
//! --workload follow|gaps` runs those on 1.3 M neurons, with its own
//! checks): the same pipelines at a reduced scale, asserting the
//! invariants of the end-to-end bench path so a regression fails
//! `cargo test`.

use scout_bench::{figure11_roster, no_prefetch, run_roster, scout_opt};
use scout_core::{Scout, ScoutConfig};
use scout_sim::{Prefetcher, TestBed};
use scout_synth::{generate_neurons, NeuronParams};

/// Small stand-in for the 1.3M-object smoke dataset: same generator, same
/// seed discipline, ~25k objects so the test finishes in seconds.
fn small_bed() -> TestBed {
    TestBed::new(generate_neurons(&NeuronParams::with_target_objects(25_000), 42))
}

#[test]
fn smoke_pipeline_invariants() {
    let bed = small_bed();
    let bench = scout_sim::workloads::ADHOC_PATTERN;

    let mut roster = figure11_roster();
    roster.push(no_prefetch());
    roster.push(Box::new(Scout::new(ScoutConfig {
        max_prefetch_locations: 3,
        incremental_steps: 3,
        ..Default::default()
    })));
    let results = run_roster(&bed, &mut roster, &bench.sequence, 4, bench.window_ratio, 7);

    assert_eq!(results.len(), roster.len());
    for m in &results {
        assert!(
            (0.0..=1.0).contains(&m.hit_rate),
            "{}: hit rate {} outside [0, 1]",
            m.name,
            m.hit_rate
        );
        assert!(m.speedup.is_finite() && m.speedup > 0.0, "{}: bad speedup {}", m.name, m.speedup);
        assert!(m.response_us.is_finite() && m.response_us > 0.0, "{}: no response time", m.name);
        assert!(m.result_objects > 0, "{}: queries returned nothing", m.name);
    }

    // The no-prefetching baseline by definition prefetches nothing and is
    // the reference point of the speedup column.
    let np = results
        .iter()
        .find(|m| m.name == no_prefetch().name())
        .expect("roster contains the no-prefetch baseline");
    assert_eq!(np.prefetch_pages, 0, "NoPrefetch must not prefetch");
    assert!(
        (np.speedup - 1.0).abs() < 1e-6,
        "NoPrefetch speedup {} should be exactly 1 against itself",
        np.speedup
    );

    // SCOUT must never lose to running without prefetching, and on a
    // structure-following workload it must actually hit something.
    let scout = results.iter().find(|m| m.name.contains("SCOUT")).expect("roster contains SCOUT");
    assert!(scout.speedup >= 1.0, "SCOUT speedup {} < 1", scout.speedup);
    assert!(scout.hit_rate > 0.05, "SCOUT hit rate {} suspiciously low", scout.hit_rate);
}

#[test]
fn smoke_gaps_pipeline_invariants() {
    let bed = small_bed();
    let bench = scout_sim::workloads::VIS_GAPS_HIGH;
    let mut roster: Vec<Box<dyn Prefetcher>> = vec![Box::new(Scout::with_defaults()), scout_opt()];
    let results = run_roster(&bed, &mut roster, &bench.sequence, 3, bench.window_ratio, 7);

    assert_eq!(results.len(), 2);
    for m in &results {
        assert!(
            (0.0..=1.0).contains(&m.hit_rate),
            "{}: hit rate {} outside [0, 1]",
            m.name,
            m.hit_rate
        );
        assert!(m.speedup.is_finite() && m.speedup > 0.0, "{}: bad speedup {}", m.name, m.speedup);
        assert!(m.response_us > 0.0, "{}: no response time", m.name);
    }
    // SCOUT-OPT is the gap-traversal variant: it must run on the FLAT
    // context and report its traversal overhead through `gap_pages`;
    // plain SCOUT has no gap-traversal path at all.
    let plain = &results[0];
    assert_eq!(plain.gap_pages, 0, "plain SCOUT cannot traverse gaps");
}
