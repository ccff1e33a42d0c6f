//! Paper-style text tables for the bench harnesses.

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width != header width");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                let pad = widths[i].saturating_sub(c.chars().count());
                if i + 1 < cells.len() {
                    line.extend(std::iter::repeat_n(' ', pad));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat_n('-', total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Residual-latency percentiles of a set of queries, in µs.
///
/// The paper reports totals and means; tail percentiles are what matter
/// once many sessions share one cache — a prefetcher that helps the median
/// but starves one session shows up in p99, not in the mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Median, µs.
    pub p50: f64,
    /// 95th percentile, µs.
    pub p95: f64,
    /// 99th percentile, µs.
    pub p99: f64,
}

/// Nearest-rank percentiles of `samples` (0 everywhere when empty).
///
/// Copies once and delegates to `percentiles_mut`; callers holding an
/// owned buffer they no longer need sorted should call that directly.
pub fn percentiles(samples: &[f64]) -> LatencyPercentiles {
    let mut scratch = samples.to_vec();
    percentiles_mut(&mut scratch)
}

/// Nearest-rank percentiles of `samples` (0 everywhere when empty),
/// computed in place via three-way quickselect instead of a full sort —
/// O(n) expected instead of O(n log n), no allocation. Reorders `samples`
/// arbitrarily. Selects the same element a `total_cmp` sort would put at
/// each nearest-rank index, so results are bit-identical to the
/// historical clone-and-sort implementation (pinned by a property test).
pub(crate) fn percentiles_mut(samples: &mut [f64]) -> LatencyPercentiles {
    if samples.is_empty() {
        return LatencyPercentiles::default();
    }
    let n = samples.len();
    let index = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let ranks = [index(50.0), index(95.0), index(99.0)];
    let mut out = [0.0f64; 3];
    // Successive suffix selections: each select pivots its rank into
    // place and hands back the (unsorted) strictly-higher-rank tail, so
    // the later, larger ranks search an ever-narrower suffix.
    let mut tail: &mut [f64] = samples;
    let mut base = 0usize; // index of tail[0] within the full slice
    let mut last = usize::MAX;
    for (i, &k) in ranks.iter().enumerate() {
        if k == last {
            out[i] = out[i - 1];
            continue;
        }
        let (_, v, rest) = tail.select_nth_unstable_by(k - base, f64::total_cmp);
        out[i] = *v;
        base = k + 1;
        tail = rest;
        last = k;
    }
    LatencyPercentiles { p50: out[0], p95: out[1], p99: out[2] }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Formats a fraction as a percentage, or `n/a` when no events backed it:
/// a ratio over zero events renders as `0.0`, indistinguishable from a
/// genuinely cold cache, so reports must show that no measurement exists.
pub(crate) fn pct_or_na(x: f64, events: u64) -> String {
    if events == 0 {
        "n/a".to_string()
    } else {
        pct(x)
    }
}

/// Formats a speedup factor with one decimal and an `x` suffix.
pub fn speedup(x: f64) -> String {
    format!("{x:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer-name", "22.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Value column aligned: both rows place values at the same offset.
        let off_a = lines[2].find('1').unwrap();
        let off_b = lines[3].find("22.5").unwrap();
        assert_eq!(off_a, off_b);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.914), "91.4");
        assert_eq!(speedup(14.96), "15.0x");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = percentiles(&samples);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        // Order independence.
        let mut rev = samples.clone();
        rev.reverse();
        assert_eq!(percentiles(&rev), p);
    }

    #[test]
    fn percentiles_small_and_empty() {
        assert_eq!(percentiles(&[]), LatencyPercentiles::default());
        let p = percentiles(&[7.0]);
        assert_eq!((p.p50, p.p95, p.p99), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentiles_even_length_two_sample_and_duplicates() {
        // Even length: nearest rank (no interpolation) — p50 of 1..=10 is
        // the 5th sample, the tails are the maximum.
        let even: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p = percentiles(&even);
        assert_eq!((p.p50, p.p95, p.p99), (5.0, 10.0, 10.0));
        // Two samples: p50 is the smaller, both tails the larger.
        let p = percentiles(&[9.0, 3.0]);
        assert_eq!((p.p50, p.p95, p.p99), (3.0, 9.0, 9.0));
        // Duplicate-heavy input: rank lookup lands inside the tie run and
        // the outliers at either end must not leak into the percentiles.
        let mut dup = vec![5.0; 98];
        dup.push(1.0);
        dup.push(100.0);
        let p = percentiles(&dup);
        assert_eq!((p.p50, p.p95, p.p99), (5.0, 5.0, 5.0));
    }

    #[test]
    fn pct_or_na_distinguishes_unused_from_cold() {
        assert_eq!(pct_or_na(0.0, 0), "n/a");
        assert_eq!(pct_or_na(0.0, 10), "0.0");
        assert_eq!(pct_or_na(0.75, 4), "75.0");
    }

    /// The historical clone-and-sort implementation, kept verbatim as the
    /// oracle the quickselect path is pinned against.
    fn percentiles_sort_oracle(samples: &[f64]) -> LatencyPercentiles {
        if samples.is_empty() {
            return LatencyPercentiles::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        LatencyPercentiles { p50: at(50.0), p95: at(95.0), p99: at(99.0) }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn percentiles_match_the_sort_oracle(
            samples in proptest::collection::vec(
                proptest::prelude::prop_oneof![
                    -1.0e9..1.0e9f64,
                    proptest::prelude::Just(0.0),
                    proptest::prelude::Just(-0.0),
                    proptest::prelude::Just(f64::INFINITY),
                ],
                0..200,
            ),
        ) {
            let oracle = percentiles_sort_oracle(&samples);
            // Borrowed path (copies internally) and in-place path must
            // both select exactly the element the sort would have.
            proptest::prop_assert_eq!(percentiles(&samples), oracle);
            let mut scratch = samples.clone();
            proptest::prop_assert_eq!(percentiles_mut(&mut scratch), oracle);
            // The in-place path reorders but never rewrites the samples.
            scratch.sort_by(f64::total_cmp);
            let mut resorted = samples;
            resorted.sort_by(f64::total_cmp);
            let same = scratch.iter().zip(&resorted).all(|(a, b)| a.total_cmp(b).is_eq());
            proptest::prop_assert!(same, "percentiles_mut must only permute");
        }
    }
}
