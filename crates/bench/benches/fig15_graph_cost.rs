//! Figure 15 — graph building cost vs result size, SCOUT vs SCOUT-OPT,
//! plus the §8.2 memory measurement.
//!
//! For each sequence, the total graph-building time of its 25 queries is
//! plotted against the total number of result objects. Paper reference:
//! SCOUT linear in the result size; SCOUT-OPT flatter (§6.2's sparse
//! construction); prediction memory ≈ 24 % of the result size for SCOUT
//! vs ≈ 6 % for SCOUT-OPT.
//!
//! **Not reproduced: the SCOUT-OPT saving.** On the synthetic beds a
//! result is one or two connected structures (the continuing components
//! hold 99.5 % of its vertices), so SCOUT-OPT builds SCOUT's graph; what
//! still differs between the two rows is the index (R-tree vs FLAT order)
//! and the overlapped prediction.

use scout_bench::{neuron_dataset, sequences};
use scout_core::{Scout, ScoutOpt};
use scout_sim::report::Table;
use scout_sim::{region_lists, run_sequences, ExecutorConfig, TestBed};
use scout_synth::{generate_sequences, SequenceParams};

fn main() {
    println!("== Figure 15: graph building cost vs result size ==\n");
    let bed = TestBed::new(neuron_dataset());
    let n_seq = sequences(12);

    // Vary the query volume across sequences to span the x-axis.
    let mut rows: Vec<(usize, f64, f64, String)> = Vec::new();
    let mut mem_ratios: Vec<(String, f64)> = Vec::new();

    for (name, is_opt) in [("SCOUT", false), ("SCOUT-OPT", true)] {
        let mut all = Vec::new();
        for (i, volume) in [20_000.0, 50_000.0, 80_000.0, 120_000.0].iter().enumerate() {
            let params =
                SequenceParams { volume: *volume, ..SequenceParams::sensitivity_default() };
            let seqs = generate_sequences(&bed.dataset, &params, n_seq / 3 + 1, 0xF15 + i as u64);
            let regions = region_lists(&seqs);
            let exec = ExecutorConfig::default();
            let traces = if is_opt {
                let mut p = ScoutOpt::with_defaults();
                run_sequences(&bed.ctx_flat(), &mut p, &regions, &exec)
            } else {
                let mut p = Scout::with_defaults();
                run_sequences(&bed.ctx_rtree(), &mut p, &regions, &exec)
            };
            for t in &traces {
                let objects = t.total_result_objects();
                let build_s = t.total_graph_build_us() / 1e6;
                all.push((objects, build_s));
                rows.push((objects, build_s, *volume, name.to_string()));
            }
            // Memory ratio: peak prediction memory / result bytes (result
            // bytes modeled as pages × page size).
            let peak_mem: usize = traces
                .iter()
                .flat_map(|t| t.queries.iter().map(|q| q.prediction.memory_bytes))
                .max()
                .unwrap_or(0);
            let max_result_bytes: usize = traces
                .iter()
                .flat_map(|t| t.queries.iter().map(|q| q.pages_total * 4096))
                .max()
                .unwrap_or(1);
            mem_ratios.push((name.to_string(), peak_mem as f64 / max_result_bytes as f64));
        }
        // Linearity check: correlation of build time with result count.
        let n = all.len() as f64;
        let mx = all.iter().map(|(o, _)| *o as f64).sum::<f64>() / n;
        let my = all.iter().map(|(_, b)| *b).sum::<f64>() / n;
        let cov: f64 = all.iter().map(|(o, b)| (*o as f64 - mx) * (b - my)).sum::<f64>() / n;
        let sx = (all.iter().map(|(o, _)| (*o as f64 - mx).powi(2)).sum::<f64>() / n).sqrt();
        let sy = (all.iter().map(|(_, b)| (b - my).powi(2)).sum::<f64>() / n).sqrt();
        let r = cov / (sx * sy).max(1e-12);
        println!("{name}: correlation(build time, result size) = {r:.3}");
    }

    rows.sort_by_key(|(objects, ..)| *objects);
    let mut t = Table::new(["# Query Results [x10^4]", "Build Time [s]", "Method"]);
    for (objects, build, _vol, name) in rows.iter().step_by(rows.len() / 24 + 1) {
        t.row([format!("{:.1}", *objects as f64 / 1e4), format!("{build:.3}"), name.clone()]);
    }
    println!("\n{}", t.render());

    // §8.2 memory ratios (mean over volume settings).
    println!("-- prediction memory relative to result size --");
    for (name, paper) in [("SCOUT", 24), ("SCOUT-OPT", 6)] {
        let vals: Vec<f64> =
            mem_ratios.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).collect();
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        println!("{name}: {:.1} % (paper: {paper} %)", mean * 100.0);
    }
    println!("(SCOUT-OPT's 6 % is §6.2's sparse graph: not reproduced, it builds SCOUT's graph)");
}
