//! The abstract machine a mapping targets.
//!
//! The paper's programmable target: "a programmable processor at each
//! grid point … surrounded by many 'tiles' of memory. … The amount of
//! memory per processor is also a parameter." A [`MachineConfig`] fixes
//! the technology, the grid extent actually used, the per-PE issue
//! width, the per-PE tile capacity, and the NoC link width.
//!
//! ## Timing discipline
//!
//! Time is discretized into cycles ("the time axis can be discretized
//! into cycles"). One cycle is long enough for a PE to evaluate one
//! element *and* forward the result one hop — the classic systolic
//! regime — so the clock period is `op latency + one-hop wire delay`.
//! A value produced at cycle `t` is usable by a consumer `h` hops away
//! at cycle `t + max(1, h)`: the first hop overlaps the producing cycle,
//! and each further hop costs one more cycle.

use serde::{Deserialize, Serialize};

use fm_costmodel::{ChipGeometry, Femtojoules, OpKind, Picoseconds, Technology};

/// Machine configuration: technology + grid + microarchitectural knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Technology constants. Its `chip` geometry is rebuilt by
    /// [`MachineConfig::new`] so pitches reflect this machine's grid.
    pub tech: Technology,
    /// PE columns in use.
    pub cols: u32,
    /// PE rows in use.
    pub rows: u32,
    /// Elements a PE may evaluate per cycle.
    pub issue_width: u32,
    /// Per-PE memory tile capacity in bits.
    pub tile_bits: u64,
    /// NoC link width in bits (one flit per link per cycle).
    pub link_width_bits: u32,
}

impl MachineConfig {
    /// The largest grid, in PEs, a served request may carry: 65,536
    /// (256 × 256), 64× the largest grid the repository's tests,
    /// benches and examples use (32 × 32). Evaluation allocates per-PE
    /// arrays sized by the grid, so a server refuses larger machines
    /// instead of attempting an unbounded allocation.
    pub const MAX_PES: u64 = 1 << 16;

    /// A machine using a `cols × rows` grid of the given technology's
    /// die. Defaults: single-issue PEs, 128 Kbit tiles, 64-bit links.
    pub fn new(tech: Technology, cols: u32, rows: u32) -> Self {
        let mut tech = tech;
        tech.chip = ChipGeometry::with_grid(tech.chip.area_mm2, cols, rows);
        MachineConfig {
            tech,
            cols,
            rows,
            issue_width: 1,
            tile_bits: 128 * 1024,
            link_width_bits: 64,
        }
    }

    /// The paper's 5 nm technology on a `cols × rows` grid.
    pub fn n5(cols: u32, rows: u32) -> Self {
        Self::new(Technology::n5(), cols, rows)
    }

    /// A linear array of `p` PEs (the paper's edit-distance example
    /// maps onto "an array of P processors").
    pub fn linear(p: u32) -> Self {
        Self::n5(p, 1)
    }

    /// Total PEs, computed without overflow.
    pub fn pe_count(&self) -> u64 {
        u64::from(self.cols) * u64::from(self.rows)
    }

    /// Whether a (possibly unresolved) coordinate pair is on the grid.
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= 0 && y >= 0 && (x as u32) < self.cols && (y as u32) < self.rows
    }

    /// One-hop wire delay: the larger pitch among dimensions that can
    /// actually be traversed (a 1-row linear array never hops
    /// vertically, so its row pitch — the full die — must not set the
    /// clock).
    pub fn hop_delay(&self) -> Picoseconds {
        let mut pitch: f64 = 0.0;
        if self.cols > 1 {
            pitch = pitch.max(self.tech.chip.col_pitch().raw());
        }
        if self.rows > 1 {
            pitch = pitch.max(self.tech.chip.row_pitch().raw());
        }
        if pitch == 0.0 {
            pitch = self.tech.chip.col_pitch().raw();
        }
        self.tech.wire_delay(fm_costmodel::Millimeters::new(pitch))
    }

    /// The clock period: one element evaluation plus one hop.
    pub fn clock_period(&self) -> Picoseconds {
        self.tech.op_latency(OpKind::add32()) + self.hop_delay()
    }

    /// Hops between two PEs under X-Y routing.
    pub fn hops(&self, a: (u32, u32), b: (u32, u32)) -> u32 {
        self.tech.chip.hops(a, b)
    }

    /// The minimum cycle gap between producing at `a` and consuming at
    /// `b`: `max(1, hops)` (the first hop overlaps the producing cycle).
    pub fn required_gap(&self, a: (u32, u32), b: (u32, u32)) -> i64 {
        i64::from(self.hops(a, b).max(1))
    }

    /// Energy to move `bits` from PE `a` to PE `b` on the NoC
    /// (Manhattan distance × wire cost); zero distance means a local
    /// tile access, charged separately.
    pub fn route_energy(&self, bits: u64, a: (u32, u32), b: (u32, u32)) -> Femtojoules {
        self.tech.wire_energy(bits, self.tech.chip.manhattan(a, b))
    }

    /// Manhattan distance in mm between two PEs.
    pub fn distance_mm(&self, a: (u32, u32), b: (u32, u32)) -> f64 {
        self.tech.chip.manhattan(a, b).raw()
    }

    /// Energy of a local tile (SRAM) access of `bits`.
    pub fn tile_access_energy(&self, bits: u64) -> Femtojoules {
        self.tech.op_energy(OpKind::sram(bits as u32))
    }

    /// The machine's roofline ceilings, in per-picosecond rates:
    ///
    /// * **compute** — every PE can evaluate `issue_width` elements per
    ///   cycle;
    /// * **on-chip bandwidth** — every directed NoC link (mesh: two per
    ///   adjacent PE pair) carries one `link_width_bits` flit per cycle;
    /// * **off-chip bandwidth** — one memory port of link width per
    ///   cycle.
    pub fn ceilings(&self) -> fm_costmodel::MachineCeilings {
        let clk = self.clock_period().raw();
        let horizontal = (self.cols.saturating_sub(1)) as u64 * self.rows as u64;
        let vertical = self.cols as u64 * (self.rows.saturating_sub(1)) as u64;
        let directed_links = 2 * (horizontal + vertical);
        fm_costmodel::MachineCeilings {
            compute_ops_per_ps: (self.pe_count() as f64 * self.issue_width as f64) / clk,
            onchip_bits_per_ps: directed_links as f64 * self.link_width_bits as f64 / clk,
            offchip_bits_per_ps: self.link_width_bits as f64 / clk,
        }
    }

    /// Total wire length in mm of a **multicast tree** from `from` to
    /// every PE in `dests`: the union of the X-Y unicast paths (a
    /// cheap, deterministic Steiner approximation — shared prefixes are
    /// paid once). Returns `(total_mm, links)`.
    pub fn multicast_route(&self, from: (u32, u32), dests: &[(u32, u32)]) -> (f64, usize) {
        let mut links: std::collections::HashSet<((u32, u32), (u32, u32))> =
            std::collections::HashSet::new();
        for &d in dests {
            // Walk the X-Y path, collecting directed links.
            let mut cur = from;
            while cur.0 != d.0 {
                let next = if cur.0 < d.0 {
                    (cur.0 + 1, cur.1)
                } else {
                    (cur.0 - 1, cur.1)
                };
                links.insert((cur, next));
                cur = next;
            }
            while cur.1 != d.1 {
                let next = if cur.1 < d.1 {
                    (cur.0, cur.1 + 1)
                } else {
                    (cur.0, cur.1 - 1)
                };
                links.insert((cur, next));
                cur = next;
            }
        }
        // Sum in sorted link order: HashSet iteration order varies per
        // call, and float addition is order-dependent, so an unsorted
        // sum would make repeated evaluations of the same mapping
        // disagree in the last bits.
        let mut links: Vec<((u32, u32), (u32, u32))> = links.into_iter().collect();
        links.sort_unstable();
        let total_mm: f64 = links
            .iter()
            .map(|&(a, b)| self.tech.chip.manhattan(a, b).raw())
            .sum();
        (total_mm, links.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rebuilt_to_match() {
        let m = MachineConfig::n5(8, 4);
        assert_eq!(m.tech.chip.cols, 8);
        assert_eq!(m.tech.chip.rows, 4);
        assert_eq!(m.pe_count(), 32);
    }

    #[test]
    fn linear_machine_is_one_row() {
        let m = MachineConfig::linear(16);
        assert_eq!(m.cols, 16);
        assert_eq!(m.rows, 1);
    }

    #[test]
    fn contains_bounds() {
        let m = MachineConfig::n5(4, 4);
        assert!(m.contains(0, 0));
        assert!(m.contains(3, 3));
        assert!(!m.contains(4, 0));
        assert!(!m.contains(-1, 2));
    }

    #[test]
    fn clock_covers_compute_plus_hop() {
        let m = MachineConfig::n5(32, 32);
        let clk = m.clock_period().raw();
        assert!(clk > 200.0);
        assert!((clk - (200.0 + m.hop_delay().raw())).abs() < 1e-9);
    }

    #[test]
    fn required_gap_is_max_1_hops() {
        let m = MachineConfig::n5(8, 8);
        assert_eq!(m.required_gap((0, 0), (0, 0)), 1);
        assert_eq!(m.required_gap((0, 0), (1, 0)), 1);
        assert_eq!(m.required_gap((0, 0), (3, 2)), 5);
    }

    #[test]
    fn route_energy_scales_with_distance_and_bits() {
        let m = MachineConfig::n5(32, 32);
        let e1 = m.route_energy(32, (0, 0), (1, 0)).raw();
        let e2 = m.route_energy(32, (0, 0), (2, 0)).raw();
        let e3 = m.route_energy(64, (0, 0), (1, 0)).raw();
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        assert!((e3 / e1 - 2.0).abs() < 1e-9);
        assert_eq!(m.route_energy(32, (5, 5), (5, 5)).raw(), 0.0);
    }

    #[test]
    fn multicast_shares_common_prefix() {
        let m = MachineConfig::linear(8);
        // Unicast to PEs 4 and 7 from 0: 4 + 7 = 11 hops.
        // Multicast: union of paths = 7 hops (0→7 covers 0→4).
        let (mm, links) = m.multicast_route((0, 0), &[(4, 0), (7, 0)]);
        assert_eq!(links, 7);
        let pitch = m.distance_mm((0, 0), (1, 0));
        assert!((mm - 7.0 * pitch).abs() < 1e-9);
    }

    #[test]
    fn multicast_to_nobody_is_free() {
        let m = MachineConfig::n5(4, 4);
        let (mm, links) = m.multicast_route((2, 2), &[]);
        assert_eq!(mm, 0.0);
        assert_eq!(links, 0);
    }

    #[test]
    fn multicast_branches_pay_both_arms() {
        let m = MachineConfig::n5(8, 8);
        // Dests on opposite sides: no shared prefix, sum of paths.
        let (mm, _) = m.multicast_route((4, 4), &[(0, 4), (7, 4)]);
        let u = m.distance_mm((4, 4), (0, 4)) + m.distance_mm((4, 4), (7, 4));
        assert!((mm - u).abs() < 1e-9);
    }

    #[test]
    fn coarser_grid_has_larger_hops_in_mm() {
        let coarse = MachineConfig::n5(8, 8);
        let fine = MachineConfig::n5(32, 32);
        assert!(coarse.distance_mm((0, 0), (1, 0)) > fine.distance_mm((0, 0), (1, 0)));
    }
}
