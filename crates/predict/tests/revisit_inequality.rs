//! History must never cost structure following anything on a revisit
//! loop: on the neuron, lung and road beds the hybrid's pages-hit is ≥
//! plain SCOUT's (DESIGN.md §8). Every quantity is simulated, so the
//! inequality is deterministic. The unit test in `hybrid.rs` checks the
//! same on a 400-point line; this one runs the generated datasets, under
//! the cache pressure that makes per-lap prediction quality visible.

use scout_core::Scout;
use scout_predict::HybridPrefetcher;
use scout_sim::workloads::revisit_loop;
use scout_sim::{run_sequence, ExecutorConfig, Prefetcher, TestBed};
use scout_synth::{
    generate_lung, generate_neurons, generate_roads, Dataset, LungParams, NeuronParams, RoadParams,
    SequenceParams,
};

#[test]
fn hybrid_pages_hit_is_at_least_scouts_on_a_revisit_loop_on_every_dataset() {
    let seed = 42u64;
    let beds: [(&str, Dataset); 3] = [
        ("neuron", generate_neurons(&NeuronParams::with_target_objects(10_000), seed)),
        ("lung", generate_lung(&LungParams { generations: 6, ..Default::default() }, seed ^ 0x11)),
        ("roads", generate_roads(&RoadParams { grid_n: 24, ..Default::default() }, seed ^ 0x30)),
    ];
    // A cache that held every lap would make later laps free for any
    // prefetcher; 192 pages keeps old laps evicting.
    let exec = ExecutorConfig { window_ratio: 1.6, cache_pages: 192, ..ExecutorConfig::default() };
    for (name, dataset) in beds {
        let bed = TestBed::with_page_capacity(dataset, 32);
        // ≈ 250 objects per query whatever the generator's density.
        let volume = 250.0 / bed.dataset.density();
        let params = SequenceParams { volume, ..SequenceParams::sensitivity_default() };
        let regions = revisit_loop(&bed.dataset, &params, 3, 4, seed ^ 0xAA);
        let ctx = bed.ctx_rtree();
        let hits =
            |p: &mut dyn Prefetcher| run_sequence(&ctx, p, &regions, &exec).io.result_pages_cache;
        let scout = hits(&mut Scout::with_defaults());
        let hybrid = hits(&mut HybridPrefetcher::with_defaults());
        assert!(hybrid >= scout, "{name}: hybrid hit {hybrid} pages, plain SCOUT {scout}");
        assert!(scout > 0, "{name}: SCOUT hit nothing — the bed exercises no prediction");
    }
}
