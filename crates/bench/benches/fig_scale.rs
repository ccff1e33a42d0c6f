//! Session-count scaling of the M:N work-stealing scheduler (no
//! counterpart figure in the paper, whose evaluation is single-client;
//! the "millions of users" framing of §1 is the motivation).
//!
//! This bench target runs the sweep at a heavily reduced scale as the
//! compile + smoke check; the `scale` bin produces the full
//! `BENCH_scale.json` artifact CI uploads and guards.

use scout_bench::scale;
use scout_sim::report::Table;

fn main() {
    println!("== M:N scheduler scaling (reduced: 20/200/2000 sessions) ==\n");
    let report = scale::run(0.02, scout_bench::seed());
    let mut t = Table::new(["sessions", "workers", "windows/s", "steals", "parks"]);
    for p in &report.points {
        t.row([
            p.sessions.to_string(),
            p.workers.to_string(),
            format!("{:.0}", p.windows_per_sec),
            p.steals.to_string(),
            p.parks.to_string(),
        ]);
    }
    println!("{}", t.render());
    assert_eq!(report.mn_vs_rr_pages_hit_mismatches(), 0, "M:N totals diverged from round-robin");
    println!("guard ok: every width matches round-robin pages-hit");
}
