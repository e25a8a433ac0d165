//! Analytic cost evaluation of a mapped function.
//!
//! "This model makes it possible to write algorithms (function +
//! mapping) with predictable execution time and energy because
//! communication — the major source of delay and energy consumption —
//! is made explicit."
//!
//! The [`Evaluator`] walks a dataflow graph under a resolved mapping and
//! charges, against an [`EnergyLedger`]:
//!
//! * **compute** — each expression op at the technology's op energy,
//!   plus one tile write for the produced value;
//! * **on-chip communication** — one message per distinct
//!   (producer, remote consumer PE) pair, at `bits × Manhattan-mm ×
//!   wire energy`; every operand read (local or delivered) is a tile
//!   access. A value consumed twice on one remote PE moves once — the
//!   mapping's job is to place consumers so values need not move at
//!   all;
//! * **input movement** — per [`InputPlacement`]: DRAM fetches (each
//!   distinct element once), on-chip distribution from a home PE, or
//!   nothing for the idealized `AtUse`;
//! * **output writeback** — optionally, one off-chip transfer per output
//!   element.
//!
//! Execution time is simply the mapping's makespan times the clock
//! period — legal mappings have already accounted for transit. The grid
//! simulator (`fm-grid`) executes the same program and must agree with
//! this evaluator on energy exactly and on time up to NoC contention;
//! integration tests assert both.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use fm_costmodel::{
    CostBackend, CostModelKind, EnergyLedger, Femtojoules, MachineCeilings, MappingTotals, OpKind,
    Picoseconds, RooflinePoint,
};

use crate::dataflow::{DataflowGraph, InputSpec, NodeId};
use crate::legality::tile_peaks;
use crate::machine::MachineConfig;
use crate::mapping::{InputPlacement, ResolvedMapping};
use crate::search::FigureOfMerit;

/// One node's contribution to the energy ledger: everything the
/// evaluator charges that is attributable to a single node — its
/// compute ops, its result tile write, its operand/input reads, and the
/// def→use messages it *produces*. Placement-dependent but
/// time-independent, which is what makes incremental re-costing after a
/// placement move possible (see [`crate::delta::DeltaEvaluator`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCost {
    /// Compute (ALU + local SRAM) femtojoules.
    pub compute_fj: f64,
    /// Compute ops charged.
    pub compute_ops: u64,
    /// On-chip communication femtojoules.
    pub onchip_fj: f64,
    /// On-chip messages charged.
    pub onchip_messages: u64,
    /// On-chip bits moved.
    pub onchip_bits: u64,
    /// On-chip bit-millimeters moved.
    pub onchip_bit_mm: f64,
}

/// A fixed-shape pairwise-reduction tree over per-node costs, stored
/// as a structure of arrays.
///
/// Floating-point addition is not associative, so the *shape* of the
/// summation decides the bits of the total. Both the full evaluator and
/// the incremental one sum leaves through this tree (power-of-two
/// padded with zeros; `0.0 + x == x` exactly for the non-negative
/// energies charged here), so a leaf update followed by an `O(log n)`
/// path refresh reproduces the full sum bit-for-bit.
///
/// The six [`NodeCost`] fields combine independently (field-wise adds),
/// so the layout is one array per field rather than an array of
/// structs: a full rebuild ([`CostTree::refresh`]) streams six
/// contiguous arrays instead of striding through 56-byte structs, and
/// the tree can be reset in place with zero allocation once it has
/// grown to a graph's size.
#[derive(Debug, Clone, Default)]
pub struct CostTree {
    cap: usize,
    len: usize,
    compute_fj: Vec<f64>,
    compute_ops: Vec<u64>,
    onchip_fj: Vec<f64>,
    onchip_messages: Vec<u64>,
    onchip_bits: Vec<u64>,
    onchip_bit_mm: Vec<f64>,
}

impl CostTree {
    /// An empty tree (all-zero total); grows on first [`Self::reset`].
    pub fn new() -> CostTree {
        CostTree::default()
    }

    /// Build from leaves (empty input yields an all-zero total).
    pub fn build(leaves: &[NodeCost]) -> CostTree {
        let mut t = CostTree::default();
        t.reset(leaves.len());
        for (i, &v) in leaves.iter().enumerate() {
            t.set_leaf(i, v);
        }
        t.refresh();
        t
    }

    /// Re-shape for `len` leaves, zeroing every slot. Allocates only
    /// when the tree grows past any previous capacity, so a scratch
    /// tree reused across evaluations is allocation-free in steady
    /// state.
    pub fn reset(&mut self, len: usize) {
        let cap = len.next_power_of_two().max(1);
        self.cap = cap;
        self.len = len;
        let n = 2 * cap;
        fn zero<T: Copy>(v: &mut Vec<T>, n: usize, z: T) {
            v.clear();
            v.resize(n, z);
        }
        zero(&mut self.compute_fj, n, 0.0);
        zero(&mut self.compute_ops, n, 0);
        zero(&mut self.onchip_fj, n, 0.0);
        zero(&mut self.onchip_messages, n, 0);
        zero(&mut self.onchip_bits, n, 0);
        zero(&mut self.onchip_bit_mm, n, 0.0);
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write leaf `i` without refreshing internal nodes (pair with
    /// [`Self::refresh`] after a bulk fill).
    pub fn set_leaf(&mut self, i: usize, v: NodeCost) {
        let j = self.cap + i;
        self.compute_fj[j] = v.compute_fj;
        self.compute_ops[j] = v.compute_ops;
        self.onchip_fj[j] = v.onchip_fj;
        self.onchip_messages[j] = v.onchip_messages;
        self.onchip_bits[j] = v.onchip_bits;
        self.onchip_bit_mm[j] = v.onchip_bit_mm;
    }

    /// Recompute every internal node bottom-up, one contiguous pass per
    /// field. Same combine shape as [`Self::update`]'s path refresh, so
    /// the total is bit-identical either way.
    pub fn refresh(&mut self) {
        fn up_f64(a: &mut [f64], cap: usize) {
            for i in (1..cap).rev() {
                a[i] = a[2 * i] + a[2 * i + 1];
            }
        }
        fn up_u64(a: &mut [u64], cap: usize) {
            for i in (1..cap).rev() {
                a[i] = a[2 * i] + a[2 * i + 1];
            }
        }
        up_f64(&mut self.compute_fj, self.cap);
        up_u64(&mut self.compute_ops, self.cap);
        up_f64(&mut self.onchip_fj, self.cap);
        up_u64(&mut self.onchip_messages, self.cap);
        up_u64(&mut self.onchip_bits, self.cap);
        up_f64(&mut self.onchip_bit_mm, self.cap);
    }

    /// Replace leaf `i` and refresh its root path.
    pub fn update(&mut self, i: usize, v: NodeCost) {
        self.set_leaf(i, v);
        let mut j = self.cap + i;
        while j > 1 {
            j /= 2;
            self.compute_fj[j] = self.compute_fj[2 * j] + self.compute_fj[2 * j + 1];
            self.compute_ops[j] = self.compute_ops[2 * j] + self.compute_ops[2 * j + 1];
            self.onchip_fj[j] = self.onchip_fj[2 * j] + self.onchip_fj[2 * j + 1];
            self.onchip_messages[j] = self.onchip_messages[2 * j] + self.onchip_messages[2 * j + 1];
            self.onchip_bits[j] = self.onchip_bits[2 * j] + self.onchip_bits[2 * j + 1];
            self.onchip_bit_mm[j] = self.onchip_bit_mm[2 * j] + self.onchip_bit_mm[2 * j + 1];
        }
    }

    /// Append a leaf. The shape follows the new length exactly as
    /// [`Self::build`] would; only outgrowing the power-of-two capacity
    /// re-lays the tree out.
    pub fn push_leaf(&mut self, v: NodeCost) {
        if self.len < self.cap {
            self.len += 1;
            self.update(self.len - 1, v);
        } else {
            let mut leaves: Vec<NodeCost> = (0..self.len).map(|j| self.leaf(j)).collect();
            leaves.push(v);
            *self = CostTree::build(&leaves);
        }
    }

    /// Remove leaf `i`, shifting later leaves down one slot. The shape
    /// follows the new length exactly as [`Self::build`] would; removing
    /// the last leaf within the same capacity refreshes one root path.
    pub fn remove_leaf(&mut self, i: usize) {
        let last = self.len - 1;
        if last.next_power_of_two().max(1) != self.cap {
            let leaves: Vec<NodeCost> = (0..self.len)
                .filter(|&j| j != i)
                .map(|j| self.leaf(j))
                .collect();
            *self = CostTree::build(&leaves);
            return;
        }
        for j in i..last {
            let v = self.leaf(j + 1);
            self.set_leaf(j, v);
        }
        if i == last {
            self.update(last, NodeCost::default());
        } else {
            self.set_leaf(last, NodeCost::default());
            self.refresh();
        }
        self.len = last;
    }

    fn at(&self, j: usize) -> NodeCost {
        NodeCost {
            compute_fj: self.compute_fj[j],
            compute_ops: self.compute_ops[j],
            onchip_fj: self.onchip_fj[j],
            onchip_messages: self.onchip_messages[j],
            onchip_bits: self.onchip_bits[j],
            onchip_bit_mm: self.onchip_bit_mm[j],
        }
    }

    /// Current value of leaf `i`.
    pub fn leaf(&self, i: usize) -> NodeCost {
        self.at(self.cap + i)
    }

    /// The tree-shaped sum of all leaves.
    pub fn total(&self) -> NodeCost {
        self.at(1)
    }
}

/// Placement-independent off-chip totals: DRAM input fetches (each
/// distinct element once) and optional output writeback. A pure
/// function of the graph and the evaluator's input placements, so the
/// incremental evaluator computes them once and reuses them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OffchipTotals {
    /// Off-chip femtojoules.
    pub fj: f64,
    /// Off-chip transfers.
    pub transfers: u64,
    /// Off-chip bits moved.
    pub bits: u64,
}

/// Unflatten a row-major flat index against a tensor's dims.
pub(crate) fn unflatten(spec: &InputSpec, flat: u32) -> Vec<i64> {
    let mut idx = vec![0i64; spec.dims.len()];
    let mut rem = flat as usize;
    for (k, &d) in spec.dims.iter().enumerate().rev() {
        idx[k] = (rem % d) as i64;
        rem /= d;
    }
    idx
}

/// The outcome of evaluating one mapped function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Graph name.
    pub name: String,
    /// Makespan in cycles.
    pub cycles: i64,
    /// Makespan in picoseconds (cycles × clock period).
    pub time_ps: Picoseconds,
    /// Energy and traffic, by category.
    pub ledger: EnergyLedger,
    /// Peak live bits in any one tile.
    pub peak_tile_bits: u64,
    /// Distinct PEs used.
    pub pes_used: usize,
    /// Elements per (PE used × cycle): 1.0 is a perfectly dense systolic
    /// schedule.
    pub utilization: f64,
    /// Total element count (the function's work at element granularity).
    pub elements: u64,
}

impl CostReport {
    /// Total energy.
    pub fn energy(&self) -> Femtojoules {
        self.ledger.energy.total()
    }

    /// Energy-delay product in fJ·ps.
    pub fn edp(&self) -> f64 {
        self.energy().raw() * self.time_ps.raw()
    }
}

/// Analytic evaluator for a graph on a machine.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    graph: &'a DataflowGraph,
    machine: &'a MachineConfig,
    input_placements: Vec<InputPlacement>,
    writeback_outputs: bool,
    multicast: bool,
    cost_model: CostModelKind,
}

impl<'a> Evaluator<'a> {
    /// New evaluator. Inputs default to [`InputPlacement::Dram`] (the
    /// honest default: data starts off chip) and outputs are not written
    /// back.
    pub fn new(graph: &'a DataflowGraph, machine: &'a MachineConfig) -> Self {
        Evaluator {
            graph,
            machine,
            input_placements: vec![InputPlacement::Dram; graph.inputs.len()],
            writeback_outputs: false,
            multicast: false,
            cost_model: CostModelKind::default(),
        }
    }

    /// Charge and score under a different cost backend. The default
    /// ([`CostModelKind::Analytic`]) is bit-identical to the historical
    /// hard-coded model.
    pub fn with_cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost_model = kind;
        self
    }

    /// Which cost backend this evaluator charges under.
    pub fn cost_model(&self) -> CostModelKind {
        self.cost_model
    }

    /// The active backend instance.
    pub fn backend(&self) -> &'static dyn CostBackend {
        self.cost_model.backend()
    }

    /// Route def→use traffic as multicast trees (union of X-Y paths,
    /// shared prefixes paid once) instead of per-destination unicasts.
    /// **Analytic what-if only**: the grid simulator models unicast, so
    /// the sim-agreement invariant applies to the default (unicast)
    /// evaluator.
    pub fn with_multicast(mut self, on: bool) -> Self {
        self.multicast = on;
        self
    }

    /// Set the placement of one input.
    pub fn with_input_placement(mut self, input: usize, p: InputPlacement) -> Self {
        self.input_placements[input] = p;
        self
    }

    /// Set every input's placement at once.
    pub fn with_all_inputs(mut self, p: InputPlacement) -> Self {
        for slot in &mut self.input_placements {
            *slot = p.clone();
        }
        self
    }

    /// Charge one off-chip transfer per output element.
    pub fn with_writeback(mut self, on: bool) -> Self {
        self.writeback_outputs = on;
        self
    }

    /// The graph under evaluation.
    pub fn graph(&self) -> &'a DataflowGraph {
        self.graph
    }

    /// The machine evaluated against.
    pub fn machine(&self) -> &'a MachineConfig {
        self.machine
    }

    /// The placement of one input (for the flat engine's precompute).
    pub(crate) fn input_placement(&self, input: usize) -> &InputPlacement {
        &self.input_placements[input]
    }

    /// Whether def→use traffic routes as multicast trees.
    pub(crate) fn multicast_on(&self) -> bool {
        self.multicast
    }

    /// The ledger contribution of node `id` under the given placements:
    /// its ops, result write, operand/input reads, and the def→use
    /// messages it produces to its (remote) consumers. Depends only on
    /// `place[id]`, the places of `id`'s consumers, and the evaluator's
    /// input placements — never on times.
    pub(crate) fn node_cost(
        &self,
        id: usize,
        place: &[(i64, i64)],
        consumers: &[Vec<NodeId>],
    ) -> NodeCost {
        self.node_cost_in(id, place, &consumers[id], &mut Vec::new())
    }

    /// [`Self::node_cost`] with a caller-owned buffer for the distinct
    /// remote consumer PEs, so hot loops (the incremental evaluator's
    /// repair path, the warm-tune flush) re-cost nodes without a heap
    /// allocation per call. `consumers` is node `id`'s consumer list.
    pub(crate) fn node_cost_in(
        &self,
        id: usize,
        place: &[(i64, i64)],
        consumers: &[NodeId],
        pes: &mut Vec<(i64, i64)>,
    ) -> NodeCost {
        let g = self.graph;
        let m = self.machine;
        let be = self.backend();
        let width = u64::from(g.width_bits);
        let n = &g.nodes[id];
        let mut c = NodeCost::default();
        let compute = |e: Femtojoules, c: &mut NodeCost| {
            c.compute_fj += e.raw();
            c.compute_ops += 1;
        };
        let onchip = |mm: f64, e: Femtojoules, c: &mut NodeCost| {
            c.onchip_fj += e.raw();
            c.onchip_messages += 1;
            c.onchip_bits += width;
            c.onchip_bit_mm += width as f64 * mm;
        };

        // Compute: expression ops + one tile write for the result.
        for op in n.expr.op_kinds(g.width_bits) {
            compute(be.op_energy(&m.tech, op), &mut c);
        }
        compute(be.tile_access_energy(&m.tech, width), &mut c);

        let cons = place[id];
        // Operand reads: one tile access per dependency (the value is
        // local by then — produced here or delivered here).
        for _ in &n.deps {
            compute(be.tile_access_energy(&m.tech, width), &mut c);
        }

        // Input reads. DRAM reads are charged in [`Self::offchip_totals`]
        // (once per distinct element, not per read).
        for (input, flat) in n.expr.input_reads() {
            match &self.input_placements[input as usize] {
                InputPlacement::Dram => {}
                InputPlacement::Local(pexpr) => {
                    let spec = &g.inputs[input as usize];
                    let idx = unflatten(spec, flat);
                    let home = pexpr.eval(&idx, m.cols);
                    if home == cons {
                        compute(be.tile_access_energy(&m.tech, width), &mut c);
                    } else {
                        let a = (home.0 as u32, home.1 as u32);
                        let b = (cons.0 as u32, cons.1 as u32);
                        let e = be.wire_energy(&m.tech, width, m.tech.chip.manhattan(a, b));
                        onchip(m.distance_mm(a, b), e, &mut c);
                    }
                }
                InputPlacement::AtUse => {
                    compute(be.tile_access_energy(&m.tech, width), &mut c);
                }
            }
        }

        // Def→use movement this node *produces*: one message per
        // distinct remote consumer PE.
        let prod = place[id];
        pes.clear();
        pes.extend(
            consumers
                .iter()
                .map(|&cn| place[cn as usize])
                .filter(|&p| p != prod),
        );
        pes.sort_unstable();
        pes.dedup();
        let a = (prod.0 as u32, prod.1 as u32);
        if self.multicast {
            if !pes.is_empty() {
                let dests: Vec<(u32, u32)> = pes.iter().map(|p| (p.0 as u32, p.1 as u32)).collect();
                let (mm, _links) = m.multicast_route(a, &dests);
                let e = be.wire_energy(&m.tech, width, fm_costmodel::Millimeters::new(mm));
                onchip(mm, e, &mut c);
            }
        } else {
            for &pe in pes.iter() {
                let b = (pe.0 as u32, pe.1 as u32);
                let e = be.wire_energy(&m.tech, width, m.tech.chip.manhattan(a, b));
                onchip(m.distance_mm(a, b), e, &mut c);
            }
        }
        c
    }

    /// Off-chip totals: DRAM fetches (each distinct element once) plus
    /// optional output writeback. Placement-independent.
    pub(crate) fn offchip_totals(&self) -> OffchipTotals {
        let g = self.graph;
        let mut dram_elements: HashSet<(u32, u32)> = HashSet::new();
        for n in &g.nodes {
            for (input, flat) in n.expr.input_reads() {
                if self.dram_input(input) {
                    dram_elements.insert((input, flat));
                }
            }
        }
        let writeback = if self.writeback_outputs {
            g.outputs().len() as u64
        } else {
            0
        };
        self.offchip_from_count(dram_elements.len() as u64 + writeback)
    }

    /// Whether `input` is placed off-chip (DRAM): the one read
    /// classification behind both [`Self::offchip_totals`] and the
    /// session engine's refcount of distinct DRAM element reads.
    pub(crate) fn dram_input(&self, input: u32) -> bool {
        matches!(
            self.input_placements.get(input as usize),
            Some(InputPlacement::Dram)
        )
    }

    /// Whether output writeback is charged.
    pub(crate) fn writeback_on(&self) -> bool {
        self.writeback_outputs
    }

    /// Off-chip totals from a transfer count: the one off-chip charge
    /// fold. Every transfer is identical (same width), so the totals
    /// are a pure function of the count, and callers that maintain the
    /// count across edits reproduce [`Self::offchip_totals`]
    /// bit-for-bit without re-walking the graph.
    pub(crate) fn offchip_from_count(&self, transfers: u64) -> OffchipTotals {
        let m = self.machine;
        let be = self.backend();
        let width = u64::from(self.graph.width_bits);
        let mut off = OffchipTotals::default();
        for _ in 0..transfers {
            off.fj += be.offchip_energy(&m.tech, width).raw();
            off.transfers += 1;
            off.bits += width;
        }
        off
    }

    /// Assemble a [`CostReport`] from tree-summed node costs, off-chip
    /// totals, and schedule aggregates. Shared verbatim between
    /// [`Self::evaluate`] and the incremental evaluator so both produce
    /// bit-identical reports from identical components.
    pub(crate) fn assemble(
        &self,
        total: NodeCost,
        off: &OffchipTotals,
        cycles: i64,
        peak_tile_bits: u64,
        pes_used: usize,
    ) -> CostReport {
        self.assemble_with_name(
            self.graph.name.clone(),
            total,
            off,
            cycles,
            peak_tile_bits,
            pes_used,
        )
    }

    /// [`Self::assemble`] with a caller-supplied name. The flat
    /// engine's scoring path passes an empty string so assembling a
    /// report allocates nothing; every numeric field is computed by the
    /// exact same arithmetic either way.
    pub(crate) fn assemble_with_name(
        &self,
        name: String,
        total: NodeCost,
        off: &OffchipTotals,
        cycles: i64,
        peak_tile_bits: u64,
        pes_used: usize,
    ) -> CostReport {
        let g = self.graph;
        let mut ledger = EnergyLedger::new();
        ledger.energy.compute = Femtojoules::new(total.compute_fj);
        ledger.energy.onchip_comm = Femtojoules::new(total.onchip_fj);
        ledger.energy.offchip = Femtojoules::new(off.fj);
        ledger.compute_ops = total.compute_ops;
        ledger.onchip_messages = total.onchip_messages;
        ledger.onchip_bits = total.onchip_bits;
        ledger.onchip_bit_mm = total.onchip_bit_mm;
        ledger.offchip_transfers = off.transfers;
        ledger.offchip_bits = off.bits;

        let utilization = if cycles > 0 && pes_used > 0 {
            g.len() as f64 / (pes_used as f64 * cycles as f64)
        } else {
            0.0
        };
        CostReport {
            name,
            cycles,
            time_ps: self.machine.clock_period() * cycles as f64,
            ledger,
            peak_tile_bits,
            pes_used,
            utilization,
            elements: g.len() as u64,
        }
    }

    /// Backend-neutral aggregates of a report, for scoring and
    /// roofline placement.
    pub fn totals(&self, r: &CostReport) -> MappingTotals {
        MappingTotals {
            compute_ops: r.ledger.compute_ops,
            onchip_bits: r.ledger.onchip_bits,
            onchip_bit_mm: r.ledger.onchip_bit_mm,
            offchip_bits: r.ledger.offchip_bits,
            energy_fj: r.energy().raw(),
            time_ps: r.time_ps.raw(),
            cycles: r.cycles,
            pes_used: r.pes_used,
            peak_tile_bits: r.peak_tile_bits,
        }
    }

    /// The target machine's roofline ceilings.
    pub fn ceilings(&self) -> MachineCeilings {
        self.machine.ceilings()
    }

    /// Scalar score of a report under the active backend (lower is
    /// better). For the default backend this is bit-identical to
    /// [`FigureOfMerit::score`]; other backends may substitute their
    /// own time/energy axes (`Edp` composes as `time × energy`, which
    /// matches the historical `energy × time` bit-for-bit).
    pub fn score(&self, fom: FigureOfMerit, r: &CostReport) -> f64 {
        if self.cost_model == CostModelKind::Analytic {
            // Fast path, and the bit-identity anchor: the exact
            // pre-backend arithmetic.
            return fom.score(r);
        }
        let be = self.backend();
        let totals = self.totals(r);
        match fom {
            FigureOfMerit::Time => be.time_score(&totals, &self.ceilings()),
            FigureOfMerit::Energy => be.energy_score(&totals),
            FigureOfMerit::Edp => {
                be.time_score(&totals, &self.ceilings()) * be.energy_score(&totals)
            }
            FigureOfMerit::Footprint => r.peak_tile_bits as f64,
        }
    }

    /// Where this report sits under the machine's roofline.
    pub fn roofline(&self, r: &CostReport) -> RooflinePoint {
        self.backend().roofline(&self.totals(r), &self.ceilings())
    }

    /// Evaluate the mapped function. The mapping is assumed legal; run
    /// [`crate::legality::check`] first.
    ///
    /// This runs the flat engine ([`crate::flat`]): PE coordinates are
    /// interned to dense ids, per-node costs stream into a
    /// structure-of-arrays [`CostTree`], and all working memory comes
    /// from a thread-local scratch arena. Mappings with off-grid places
    /// (possible only for unchecked mappings) fall back to
    /// [`Self::evaluate_ref`]. Debug builds assert the two paths agree
    /// bit-for-bit on every call.
    pub fn evaluate(&self, rm: &ResolvedMapping) -> CostReport {
        let ctx = crate::flat::EvalContext::new(self);
        let flat = crate::flat::with_thread_scratch(|scratch| {
            ctx.evaluate_report(self, &rm.place, &rm.time, scratch)
        });
        match flat {
            Some(report) => {
                debug_assert_eq!(
                    report,
                    self.evaluate_ref(rm),
                    "flat evaluation diverged from the reference path"
                );
                report
            }
            None => self.evaluate_ref(rm),
        }
    }

    /// Reference implementation of [`Self::evaluate`]: the original
    /// per-call path (consumer lists, leaves and off-chip totals all
    /// rebuilt here). Kept as the bit-identity anchor the flat engine
    /// is debug-asserted and benchmarked (E22) against, and as the
    /// fallback for off-grid places.
    #[doc(hidden)]
    pub fn evaluate_ref(&self, rm: &ResolvedMapping) -> CostReport {
        let g = self.graph;
        let consumers = g.consumers();
        let leaves: Vec<NodeCost> = (0..g.len())
            .map(|id| self.node_cost(id, &rm.place, &consumers))
            .collect();
        let total = CostTree::build(&leaves).total();
        let off = self.offchip_totals();
        let cycles = rm.makespan();
        let peak_tile_bits = tile_peaks(g, rm, cycles)
            .values()
            .copied()
            .max()
            .unwrap_or(0);
        self.assemble(total, &off, cycles, peak_tile_bits, rm.pes_used())
    }
}

/// Cost of running the same function on a conventional out-of-order
/// core: every op pays the instruction-overhead factor, every distinct
/// input element is a DRAM access, and execution is serial (one element
/// per add-latency). This is the paper's "10,000× loss of efficiency"
/// comparator for experiments E2 and E5.
pub fn conventional_core_report(graph: &DataflowGraph, machine: &MachineConfig) -> CostReport {
    let width = u64::from(graph.width_bits);
    let mut ledger = EnergyLedger::new();
    let mut dram: HashSet<(u32, u32)> = HashSet::new();
    for n in &graph.nodes {
        for op in n.expr.op_kinds(graph.width_bits) {
            let raw = machine.tech.op_energy(op);
            ledger.charge_compute(raw);
            ledger.charge_overhead(machine.tech.instruction_energy(op) - raw);
        }
        for read in n.expr.input_reads() {
            dram.insert(read);
        }
    }
    for _ in &dram {
        ledger.charge_offchip(width, machine.tech.offchip_energy(width));
    }
    let cycles = graph.len() as i64;
    CostReport {
        name: format!("{} (conventional core)", graph.name),
        cycles,
        time_ps: machine.tech.op_latency(OpKind::add32()) * cycles as f64,
        ledger,
        peak_tile_bits: 0,
        pes_used: 1,
        utilization: 1.0,
        elements: graph.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::IdxExpr;
    use crate::dataflow::CExpr;
    use crate::mapping::{Mapping, PlaceExpr, ResolvedMapping};
    use crate::value::Value;

    fn two_pe_edge() -> (DataflowGraph, ResolvedMapping, MachineConfig) {
        let mut g = DataflowGraph::new("edge", 32);
        let a = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        let b = g.add_node(
            CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
            vec![a],
            vec![1],
        );
        g.mark_output(b);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        (g, rm, m)
    }

    #[test]
    fn cross_pe_edge_charged_as_onchip_message() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.ledger.onchip_messages, 1);
        assert_eq!(rep.ledger.onchip_bits, 32);
        let expected = m.route_energy(32, (0, 0), (1, 0));
        assert!((rep.ledger.energy.onchip_comm.raw() - expected.raw()).abs() < 1e-9);
    }

    #[test]
    fn same_pe_edge_is_not_a_message() {
        let (g, _, m) = two_pe_edge();
        let rm = ResolvedMapping {
            place: vec![(0, 0), (0, 0)],
            time: vec![0, 1],
        };
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.ledger.onchip_messages, 0);
        assert_eq!(rep.ledger.energy.onchip_comm.raw(), 0.0);
    }

    #[test]
    fn dram_inputs_charged_once_per_distinct_element() {
        let mut g = DataflowGraph::new("reads", 32);
        let x = g.add_input("X", vec![4]);
        // Two nodes read element 0; one reads element 1.
        g.add_node(CExpr::input(x, 0).add(CExpr::input(x, 1)), vec![], vec![0]);
        g.add_node(CExpr::input(x, 0), vec![], vec![1]);
        let m = MachineConfig::linear(2);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.ledger.offchip_transfers, 2); // elements 0 and 1
    }

    #[test]
    fn local_input_home_vs_remote() {
        let mut g = DataflowGraph::new("local", 32);
        let x = g.add_input("X", vec![2]);
        g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        g.add_node(CExpr::input(x, 1), vec![], vec![1]);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        // Homed by index: element i at PE i → both reads are local.
        let rep = Evaluator::new(&g, &m)
            .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::i())))
            .evaluate(&rm);
        assert_eq!(rep.ledger.onchip_messages, 0);
        assert_eq!(rep.ledger.offchip_transfers, 0);

        // Homed all at PE 3 → both reads are remote messages.
        let rep2 = Evaluator::new(&g, &m)
            .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::c(3))))
            .evaluate(&rm);
        assert_eq!(rep2.ledger.onchip_messages, 2);
    }

    #[test]
    fn writeback_charges_outputs() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).with_writeback(true).evaluate(&rm);
        assert_eq!(rep.ledger.offchip_transfers, 1);
    }

    #[test]
    fn utilization_and_makespan() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.cycles, 2);
        assert_eq!(rep.pes_used, 2);
        assert!((rep.utilization - 2.0 / 4.0).abs() < 1e-12);
        assert!((rep.time_ps.raw() - 2.0 * m.clock_period().raw()).abs() < 1e-9);
    }

    #[test]
    fn conventional_core_pays_overhead() {
        let (g, _, m) = two_pe_edge();
        let conv = conventional_core_report(&g, &m);
        // One add op in the graph → overhead ≈ (10000-1) × its energy.
        let compute = conv.ledger.energy.compute.raw();
        let overhead = conv.ledger.energy.overhead.raw();
        assert!(overhead > 9000.0 * compute / 2.0);
        assert!(conv.ledger.energy.overhead.raw() > 0.0);
    }

    #[test]
    fn mapped_beats_conventional_on_energy() {
        // The paper's headline: mapped spatial execution is orders of
        // magnitude more energy-efficient than a conventional core.
        // On a dense grid (short hops) the gap is ~70×; on a sparse
        // 4-PE grid one hop spans 7 mm of die and the gap narrows —
        // also the paper's point (distance is what costs).
        let (g, _, _) = two_pe_edge();
        let m = MachineConfig::n5(32, 32);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        let mapped = Evaluator::new(&g, &m).evaluate(&rm);
        let conv = conventional_core_report(&g, &m);
        assert!(conv.energy().raw() > 10.0 * mapped.energy().raw());
    }

    #[test]
    fn serial_mapping_of_chain_cost_is_linear() {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev: Option<u32> = None;
        for i in 0..10 {
            let id = match prev {
                None => g.add_node(CExpr::konst(Value::ZERO), vec![], vec![i]),
                Some(p) => g.add_node(CExpr::dep(0), vec![p], vec![i]),
            };
            prev = Some(id);
        }
        let m = MachineConfig::linear(1);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.cycles, 10);
        assert_eq!(rep.ledger.onchip_messages, 0);
    }

    #[test]
    fn multicast_never_costs_more_than_unicast() {
        // A producer with consumers strung down a line: multicast pays
        // the longest path once, unicast pays every prefix again.
        let mut g = DataflowGraph::new("bcast", 32);
        let src = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        for i in 1..=5i64 {
            g.add_node(CExpr::dep(0), vec![src], vec![i]);
        }
        let m = MachineConfig::linear(8);
        let rm = ResolvedMapping {
            place: (0..6).map(|i| (i, 0)).collect(),
            time: (0..6).map(|i| i.max(1)).collect(),
        };
        let uni = Evaluator::new(&g, &m).evaluate(&rm);
        let multi = Evaluator::new(&g, &m).with_multicast(true).evaluate(&rm);
        assert!(multi.ledger.energy.onchip_comm.raw() < uni.ledger.energy.onchip_comm.raw());
        // The line multicast costs exactly the longest unicast.
        let longest = m.route_energy(32, (0, 0), (5, 0)).raw();
        assert!((multi.ledger.energy.onchip_comm.raw() - longest).abs() < 1e-9);
        // Events: one multicast vs five unicasts.
        assert_eq!(multi.ledger.onchip_messages, 1);
        assert_eq!(uni.ledger.onchip_messages, 5);
    }

    #[test]
    fn unflatten_row_major() {
        let spec = InputSpec {
            name: "A".into(),
            dims: vec![3, 4],
        };
        assert_eq!(unflatten(&spec, 0), vec![0, 0]);
        assert_eq!(unflatten(&spec, 6), vec![1, 2]);
        assert_eq!(unflatten(&spec, 11), vec![2, 3]);
    }

    #[test]
    fn edp_positive() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert!(rep.edp() > 0.0);
    }
}
