//! The CPU cost model.
//!
//! Prediction work (graph building, traversal, clustering) is *counted* in
//! work units by the prefetchers and converted to simulated microseconds
//! here. Charging modeled rather than measured time keeps every experiment
//! deterministic and host-independent; the constants are calibrated so the
//! Figure 14 breakdown lands in the paper's regime (graph building ≈ 15 %
//! of response time, prediction ≤ 6 % at the default density).

/// Work-unit counters accumulated during one prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuUnits {
    /// Objects inserted into the prediction graph (grid hashing included).
    pub graph_object_inserts: u64,
    /// Edges inserted into the prediction graph.
    pub graph_edge_inserts: u64,
    /// Graph traversal steps (DFS edge visits, pruning checks).
    pub traversal_steps: u64,
    /// K-means and miscellaneous prediction arithmetic, in raw µs.
    pub extra_us: f64,
}

/// Conversion rates from work units to simulated µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCostModel {
    /// µs per object inserted into the graph (hashing + cell mapping).
    pub(crate) graph_insert_us: f64,
    /// µs per graph edge created.
    pub(crate) graph_edge_us: f64,
    /// µs per traversal step.
    pub(crate) traversal_step_us: f64,
    /// µs of CPU to process one result page (decode, copy to user).
    pub page_process_us: f64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        CpuCostModel {
            graph_insert_us: 3.0,
            graph_edge_us: 0.15,
            traversal_step_us: 0.08,
            page_process_us: 10.0,
        }
    }
}

impl CpuCostModel {
    /// Checks every rate is a non-negative finite number (zero is allowed:
    /// it models free CPU, useful for I/O-only ablations).
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("graph_insert_us", self.graph_insert_us),
            ("graph_edge_us", self.graph_edge_us),
            ("traversal_step_us", self.traversal_step_us),
            ("page_process_us", self.page_process_us),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "CpuCostModel.{name} must be a non-negative finite rate, got {v}"
                ));
            }
        }
        Ok(())
    }

    /// Simulated µs of graph construction for the given units.
    pub fn graph_build_us(&self, u: &CpuUnits) -> f64 {
        u.graph_object_inserts as f64 * self.graph_insert_us
            + u.graph_edge_inserts as f64 * self.graph_edge_us
    }

    /// Simulated µs of prediction (traversal + clustering etc.).
    pub fn prediction_us(&self, u: &CpuUnits) -> f64 {
        u.traversal_steps as f64 * self.traversal_step_us + u.extra_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly() {
        let m = CpuCostModel::default();
        let u = CpuUnits {
            graph_object_inserts: 100,
            graph_edge_inserts: 200,
            traversal_steps: 50,
            extra_us: 5.0,
        };
        assert!((m.graph_build_us(&u) - (300.0 + 30.0)).abs() < 1e-9);
        assert!((m.prediction_us(&u) - (4.0 + 5.0)).abs() < 1e-9);
    }
}
