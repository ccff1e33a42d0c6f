//! Walkthrough visualization (§7.2.3): a neuroscientist flies along a
//! neuron fiber, issuing view-frustum queries for rendering. The example
//! shows how SCOUT's candidate set converges onto the followed structure
//! and how the cache-hit rate evolves query by query.
//!
//! Run with: `cargo run --example neuroscience_walkthrough --release`

use scout::prelude::*;

fn main() {
    let dataset = generate_neurons(&NeuronParams { neuron_count: 120, ..Default::default() }, 2026);
    let bed = TestBed::new(dataset);

    // Figure 10, "Visualization (High Quality)": 65 frustum queries of
    // 30 000 µm³, prefetch-window ratio 1.6 (ray tracing is slow, the disk
    // has time).
    let bench = scout::sim::workloads::VIS_HIGH;
    let sequence = generate_sequence_for(&bed, &bench);

    let config = ExecutorConfig { window_ratio: bench.window_ratio, ..Default::default() };
    let mut scout = Scout::with_defaults();
    let trace = run_sequence(&bed.ctx_rtree(), &mut scout, &sequence, &config);

    println!("query | result objs | candidates | hit rate | prefetched pages");
    println!("------+-------------+------------+----------+-----------------");
    for (i, q) in trace.queries.iter().enumerate() {
        println!(
            "{:5} | {:11} | {:10} | {:6.1} % | {:16}",
            i + 1,
            q.result_objects,
            q.prediction.candidates,
            q.hit_rate() * 100.0,
            q.prefetch_pages,
        );
    }
    println!(
        "\nsequence hit rate {:.1} % — the candidate set collapses onto the followed fiber \
         after a handful of queries (§4.3), and the hit rate follows.",
        trace.hit_rate() * 100.0
    );
}

fn generate_sequence_for(
    bed: &TestBed,
    bench: &scout::sim::workloads::Microbenchmark,
) -> Vec<QueryRegion> {
    let sequences = generate_sequences(&bed.dataset, &bench.sequence, 1, 99);
    sequences.into_iter().next().expect("one sequence").regions
}
