//! Uniform spatial grids.
//!
//! Grid hashing (§4.2) "partitions the entire three-dimensional space of
//! \[the\] range query into equi-volume grid cells and each object is mapped
//! to grid cells based on how many grid cells it intersects with". The grid
//! resolution — the total cell count — is SCOUT's main tuning knob
//! (Figure 13e sweeps 32768 … 8 cells).

use crate::aabb::Aabb;
use crate::shapes::{Segment, Simplified};
use crate::vec3::Vec3;

/// Identifier of a cell within a [`UniformGrid`] (flattened x-major index).
pub type CellId = u32;

/// A uniform grid over a bounding box with `dims[0]×dims[1]×dims[2]` cells.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    bounds: Aabb,
    dims: [u32; 3],
    cell_size: Vec3,
}

/// One moving axis of a segment's cell walk.
#[derive(Clone, Copy, Default)]
struct WalkAxis {
    /// Segment parameter at which the walk crosses this axis's next cell
    /// boundary.
    t_max: f64,
    /// Parameter distance between consecutive boundaries of this axis.
    t_delta: f64,
    /// Cells still to cross.
    left: u32,
    /// What one step adds to the flattened cell id.
    stride: u32,
}

impl WalkAxis {
    /// Crosses one boundary of this axis; returns the new cell id.
    #[inline(always)]
    fn step(&mut self, id: CellId) -> CellId {
        self.left -= 1;
        self.t_max += self.t_delta;
        id.wrapping_add(self.stride)
    }
}

impl UniformGrid {
    /// Grid over `bounds` with explicit per-axis cell counts (each ≥ 1).
    pub fn new(bounds: Aabb, dims: [u32; 3]) -> UniformGrid {
        assert!(!bounds.is_empty(), "grid bounds must be non-empty");
        assert!(dims.iter().all(|&d| d >= 1), "grid dims must be >= 1, got {dims:?}");
        let e = bounds.extent();
        let cell_size = Vec3::new(e.x / dims[0] as f64, e.y / dims[1] as f64, e.z / dims[2] as f64);
        UniformGrid { bounds, dims, cell_size }
    }

    /// Grid over `bounds` with approximately `resolution` equi-volume cells.
    ///
    /// Uses `⌈resolution^(1/3)⌉` cells per axis rounded to keep the total
    /// close to the request; resolutions that are perfect cubes (8, 64, 512,
    /// 4096, 32768 — the Figure 13e sweep) map exactly.
    pub fn with_resolution(bounds: Aabb, resolution: u32) -> UniformGrid {
        let res = resolution.max(1);
        let per_axis = (res as f64).cbrt().round().max(1.0) as u32;
        UniformGrid::new(bounds, [per_axis; 3])
    }

    /// The grid's bounding box.
    #[inline]
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// Per-axis cell counts.
    #[inline]
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> u32 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Side lengths of one cell.
    #[inline]
    pub fn cell_size(&self) -> Vec3 {
        self.cell_size
    }

    /// Length of a cell's space diagonal — the maximum distance between two
    /// objects that grid hashing may connect.
    #[inline]
    pub fn cell_diagonal(&self) -> f64 {
        self.cell_size.norm()
    }

    /// Per-axis cell coordinates of a point, clamped into the grid.
    ///
    /// After `max(0.0)` the saturating `as u32` cast truncates toward zero,
    /// which on a non-negative quotient is the cell a rounding-down would
    /// name; negatives and NaN clamp to cell 0, +∞ and quotients beyond
    /// `u32::MAX` to the last cell — no libm call on the hashing path.
    #[inline]
    pub fn coords_of(&self, p: Vec3) -> [u32; 3] {
        let rel = p - self.bounds.min;
        let mut out = [0u32; 3];
        for a in 0..3 {
            let c = if self.cell_size[a] <= 0.0 { 0.0 } else { rel[a] / self.cell_size[a] };
            out[a] = (c.max(0.0) as u32).min(self.dims[a] - 1);
        }
        out
    }

    /// Flattened cell id from per-axis coordinates.
    #[inline]
    pub fn cell_id(&self, c: [u32; 3]) -> CellId {
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Cell containing a point (clamped into the grid).
    #[inline]
    pub fn cell_of(&self, p: Vec3) -> CellId {
        self.cell_id(self.coords_of(p))
    }

    /// Bounding box of a cell given its per-axis coordinates.
    pub fn cell_aabb(&self, c: [u32; 3]) -> Aabb {
        let min = Vec3::new(
            self.bounds.min.x + c[0] as f64 * self.cell_size.x,
            self.bounds.min.y + c[1] as f64 * self.cell_size.y,
            self.bounds.min.z + c[2] as f64 * self.cell_size.z,
        );
        Aabb::new(min, min + self.cell_size)
    }

    /// Per-axis coordinates from a flattened id.
    pub fn coords_from_id(&self, id: CellId) -> [u32; 3] {
        let x = id % self.dims[0];
        let y = (id / self.dims[0]) % self.dims[1];
        let z = id / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Calls `emit` with the id of every cell a segment passes through, in
    /// walk order from `seg.a`'s cell to `seg.b`'s (3-D DDA / Amanatides–Woo
    /// traversal, endpoints clamped into the grid).
    ///
    /// Every step moves one axis one cell toward the far end, so the walk
    /// takes exactly `|Δx|+|Δy|+|Δz|` steps, ends on `seg.b`'s cell and
    /// never reports a cell twice — whatever the floating-point boundary
    /// times say. They only choose *which* unfinished axis steps next: the
    /// one with the nearest cell boundary, the lowest axis on a tie. An axis
    /// that has reached its endpoint coordinate is frozen: a segment is
    /// monotone per axis, so no further cells can lie beyond it, and
    /// accumulated `t_max` error at an exact corner crossing could otherwise
    /// re-step it and walk off the lattice. Only the axes that move at all
    /// get boundary times, and a lone moving axis needs none.
    #[inline]
    pub fn for_each_segment_cell(&self, seg: &Segment, mut emit: impl FnMut(CellId)) {
        let start = self.coords_of(seg.a);
        let end = self.coords_of(seg.b);
        let mut id = self.cell_id(start);
        emit(id);
        let strides = [1, self.dims[0], self.dims[0] * self.dims[1]];
        let dir = seg.direction();
        let mut axes = [WalkAxis::default(); 3];
        let mut moving = 0;
        for a in 0..3 {
            if start[a] == end[a] {
                continue;
            }
            // The boundary ahead of the start cell, as a parameter along
            // the segment; the id stride is signed in two's complement.
            let forward = start[a] < end[a];
            let next_boundary =
                self.bounds.min[a] + (start[a] as f64 + forward as u8 as f64) * self.cell_size[a];
            let left = start[a].abs_diff(end[a]);
            axes[moving] = WalkAxis {
                t_max: (next_boundary - seg.a[a]) / dir[a],
                // Read only after this axis has stepped and is still short
                // of its end: never, for the usual single crossing.
                t_delta: if left == 1 {
                    0.0
                } else if forward {
                    self.cell_size[a] / dir[a]
                } else {
                    self.cell_size[a] / -dir[a]
                },
                left,
                stride: if forward { strides[a] } else { strides[a].wrapping_neg() },
            };
            moving += 1;
        }
        let [mut p, mut q, mut r] = axes;
        // Three unfinished axes, then two, then a strided run. `p`, `q`,
        // `r` stay in axis order, so a tie goes to the lowest axis.
        if moving == 3 {
            while p.left != 0 && q.left != 0 && r.left != 0 {
                let nearest = if q.t_max < p.t_max {
                    if r.t_max < q.t_max {
                        &mut r
                    } else {
                        &mut q
                    }
                } else if r.t_max < p.t_max {
                    &mut r
                } else {
                    &mut p
                };
                id = nearest.step(id);
                emit(id);
            }
            if p.left == 0 {
                (p, q) = (q, r);
            } else if q.left == 0 {
                q = r;
            }
        }
        if moving >= 2 {
            while p.left != 0 && q.left != 0 {
                id = if q.t_max < p.t_max { q.step(id) } else { p.step(id) };
                emit(id);
            }
            if p.left == 0 {
                p = q;
            }
        }
        for _ in 0..p.left {
            id = id.wrapping_add(p.stride);
            emit(id);
        }
    }

    /// Appends the ids of all cells a segment passes through, in walk order
    /// (see [`UniformGrid::for_each_segment_cell`]).
    pub fn cells_for_segment(&self, seg: &Segment, out: &mut Vec<CellId>) {
        self.for_each_segment_cell(seg, |c| out.push(c));
    }

    /// Calls `emit` with the id of every cell overlapping a box (clamped to
    /// the grid; none when the box misses it).
    #[inline]
    pub fn for_each_aabb_cell(&self, aabb: &Aabb, mut emit: impl FnMut(CellId)) {
        if !aabb.intersects(&self.bounds) {
            return;
        }
        let lo = self.coords_of(aabb.min);
        let hi = self.coords_of(aabb.max);
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    emit(self.cell_id([x, y, z]));
                }
            }
        }
    }

    /// Appends the ids of all cells overlapping a box (clamped to the grid).
    pub fn cells_for_aabb(&self, aabb: &Aabb, out: &mut Vec<CellId>) {
        self.for_each_aabb_cell(aabb, |c| out.push(c));
    }

    /// Calls `emit` with each cell covered by a simplified object geometry
    /// (§4.2), each cell once.
    #[inline]
    pub fn for_each_simplified_cell(&self, s: &Simplified, mut emit: impl FnMut(CellId)) {
        match s {
            Simplified::Point(p) => emit(self.cell_of(*p)),
            Simplified::Segment(seg) => self.for_each_segment_cell(seg, emit),
            Simplified::Box(b) => self.for_each_aabb_cell(b, emit),
        }
    }

    /// Appends the cells covered by a simplified object geometry (§4.2).
    pub fn cells_for_simplified(&self, s: &Simplified, out: &mut Vec<CellId>) {
        self.for_each_simplified_cell(s, |c| out.push(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> UniformGrid {
        UniformGrid::new(Aabb::new(Vec3::ZERO, Vec3::splat(4.0)), [4, 4, 4])
    }

    #[test]
    fn resolution_rounds_to_cube() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert_eq!(UniformGrid::with_resolution(b, 32_768).dims(), [32; 3]);
        assert_eq!(UniformGrid::with_resolution(b, 4_096).dims(), [16; 3]);
        assert_eq!(UniformGrid::with_resolution(b, 512).dims(), [8; 3]);
        assert_eq!(UniformGrid::with_resolution(b, 64).dims(), [4; 3]);
        assert_eq!(UniformGrid::with_resolution(b, 8).dims(), [2; 3]);
        assert_eq!(UniformGrid::with_resolution(b, 1).dims(), [1; 3]);
    }

    #[test]
    fn cell_of_points() {
        let g = grid4();
        assert_eq!(g.coords_of(Vec3::new(0.5, 0.5, 0.5)), [0, 0, 0]);
        assert_eq!(g.coords_of(Vec3::new(3.5, 0.5, 1.5)), [3, 0, 1]);
        // Clamping outside points.
        assert_eq!(g.coords_of(Vec3::new(-1.0, 9.0, 4.0)), [0, 3, 3]);
    }

    #[test]
    fn cell_id_round_trip() {
        let g = grid4();
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    let id = g.cell_id([x, y, z]);
                    assert_eq!(g.coords_from_id(id), [x, y, z]);
                }
            }
        }
    }

    #[test]
    fn cell_aabb_tiles_bounds() {
        let g = grid4();
        let mut vol = 0.0;
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    vol += g.cell_aabb([x, y, z]).volume();
                }
            }
        }
        assert!((vol - g.bounds().volume()).abs() < 1e-9);
    }

    #[test]
    fn segment_traversal_straight_line() {
        let g = grid4();
        let mut cells = Vec::new();
        g.cells_for_segment(
            &Segment::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(3.5, 0.5, 0.5)),
            &mut cells,
        );
        let expect: Vec<CellId> = (0..4).map(|x| g.cell_id([x, 0, 0])).collect();
        assert_eq!(cells, expect);
    }

    #[test]
    fn segment_traversal_diagonal_touches_start_and_end() {
        let g = grid4();
        let mut cells = Vec::new();
        let seg = Segment::new(Vec3::new(0.2, 0.2, 0.2), Vec3::new(3.8, 3.8, 3.8));
        g.cells_for_segment(&seg, &mut cells);
        assert_eq!(*cells.first().unwrap(), g.cell_of(seg.a));
        assert_eq!(*cells.last().unwrap(), g.cell_of(seg.b));
        // A diagonal in a 4³ grid crosses at least 4 and at most 10 cells.
        assert!(cells.len() >= 4 && cells.len() <= 10, "len={}", cells.len());
    }

    #[test]
    fn segment_within_one_cell() {
        let g = grid4();
        let mut cells = Vec::new();
        g.cells_for_segment(
            &Segment::new(Vec3::new(0.1, 0.1, 0.1), Vec3::new(0.9, 0.9, 0.9)),
            &mut cells,
        );
        assert_eq!(cells, vec![g.cell_id([0, 0, 0])]);
    }

    #[test]
    fn aabb_cells_cover_box() {
        let g = grid4();
        let mut cells = Vec::new();
        g.cells_for_aabb(
            &Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(2.5, 1.5, 0.9)),
            &mut cells,
        );
        // x: cells 0..=2, y: 0..=1, z: 0 => 3*2*1 = 6 cells
        assert_eq!(cells.len(), 6);
    }

    #[test]
    fn disjoint_aabb_yields_no_cells() {
        let g = grid4();
        let mut cells = Vec::new();
        g.cells_for_aabb(&Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0)), &mut cells);
        assert!(cells.is_empty());
    }
}
