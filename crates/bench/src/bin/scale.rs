//! Emits the M:N scheduler scaling artifact.
//!
//! Runs the `fig_scale` sweep ([`mod@scout_bench::scale`]): 1k/10k/100k
//! concurrent sessions × worker counts over the work-stealing
//! [`SessionScheduler`](scout_sim::SessionScheduler), plus the
//! round-robin determinism guard.
//! Prints the sweep table and writes `BENCH_scale.json` into the current
//! directory (run from the repo root; CI uploads the file and fails the
//! job when the `guard` block reports `mn_vs_rr_pages_hit_mismatches != 0`
//! or `mn_w1_regressions != 0`).
//!
//! Run with: `cargo run -p scout-bench --bin scale --release`
//! (CI uses `SCOUT_BENCH_SCALE=0.1` for a 100/1k/10k sweep.)

use scout_sim::report::Table;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let (report, json) = scout_bench::scale::run_default();

    let mut t = Table::new([
        "sessions",
        "workers",
        "wall ms",
        "windows/s",
        "p95 ms",
        "steals",
        "parks",
        "evictions",
    ]);
    for p in &report.points {
        t.row([
            p.sessions.to_string(),
            p.workers.to_string(),
            format!("{:.0}", p.wall_ms),
            format!("{:.0}", p.windows_per_sec),
            format!("{:.3}", p.p95_us / 1_000.0),
            p.steals.to_string(),
            p.parks.to_string(),
            p.evictions.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "guard: mn_vs_rr_pages_hit_mismatches = {}, mn_w1_regressions = {}",
        report.mn_vs_rr_pages_hit_mismatches(),
        report.mn_w1_regressions()
    );
    eprintln!("scale sweep in {:.1?}", t0.elapsed());
    std::fs::write("BENCH_scale.json", json).expect("write BENCH_scale.json");
    eprintln!("wrote BENCH_scale.json");
}
