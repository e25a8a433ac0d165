//! Incremental cost/legality evaluation: cone-sized repair of one
//! shared state.
//!
//! Two engines keep a mapping's evaluation current under small changes
//! instead of re-walking the graph, and both keep it in the same
//! [`DenseState`]: the places and times, last-use times, dense per-PE
//! node lists and peaks, the time and peak histograms, the occupied and
//! over-capacity PE counts, and the cost tree. The state has one build,
//! one peak re-sweep, one last-use recompute and one report assembly;
//! the engines differ only in what changes the places and times.
//!
//! [`DeltaEvaluator`] serves the annealer in [`crate::search`], which
//! refines a mapping one single-node placement move at a time:
//!
//! * **Times** (list schedule): node ids are topological (`deps[k] < id`)
//!   and the retime rule consults only *smaller-id* nodes (producers,
//!   and same-PE occupancy in id order). Processing the dirty set with a
//!   min-heap in increasing id order therefore reaches the exact
//!   [`retime`](crate::search::retime) fixpoint with each node
//!   recomputed at most once. The dirty seed for moving node `n` is
//!   `{n} ∪ consumers(n) ∪ {ids > n on the source or destination PE}`;
//!   a node whose time changes re-dirties its consumers and its same-PE
//!   successors.
//! * **Ledger** (energy/traffic): per-node contributions
//!   ([`NodeCost`]) are time-independent, and a move changes only the
//!   moved node's own contribution and its producers' def→use messages
//!   — `deg(n) + 1` leaves of a fixed-shape reduction tree
//!   ([`CostTree`]), refreshed in O(deg·log V). Because the full
//!   evaluator sums through the *same* tree, totals agree bit-for-bit.
//! * **Storage legality**: per-PE peak live bits are re-swept only for
//!   the source/destination PEs, the PEs of retimed nodes, and the PEs
//!   of values whose last use moved. Output lifetimes use a far-future
//!   sentinel instead of the makespan — the peak of an interval stack is
//!   invariant to any right endpoint past the last start — so peaks
//!   never depend on makespan changes.
//! * **Aggregates**: PEs are interned to dense ids by the flat engine's
//!   `y·cols + x` rule, so node lists and peaks are plain vectors.
//!   Makespan and the global peak are maxima over multisets kept in
//!   `BTreeMap` histograms keyed by cycle and by bits; PEs-used and the
//!   storage-violation count are maintained as lists and peaks change.
//!   The report is therefore one tree-root read plus two map lookups.
//!
//! In debug builds every [`DeltaEvaluator::apply_move`] re-derives the
//! full schedule and report and asserts bit-exact equality
//! ([`DeltaEvaluator::assert_parity`]); property tests in the workspace
//! root drive random move sequences through the same assertion.
//!
//! Every cached field is a pure function of the placement vector, so
//! undoing a move can always fall back to applying the reverse move;
//! [`DeltaEvaluator::undo`] is cheaper — each move journals the values
//! it overwrites, and replaying the journal in reverse restores the
//! prior state with no scheduling, sweeping, or sorting at all. The
//! annealer uses it to make rejected proposals nearly free.
//!
//! [`DeltaCandidates`] serves sessions: a *pool* of mapping candidates
//! under **structural** edits ([`AppliedEdit`]: add/remove node,
//! retarget edge, resize tile). A candidate's places and times are pure
//! functions of each node's immutable domain index (affine) or of a
//! fixed table, so an edit never reschedules surviving nodes. Each
//! candidate is a [`DenseState`] plus its bounds, causality and
//! issue-width counters (issue cells hashed by PE id and cycle) and a
//! list of stale leaves, recosted lazily when the candidate is legal.
//! Its evaluation stays bit-identical to
//! [`crate::search::evaluate_candidate`] run cold on the edited graph.
//! Nodes placed off the grid (only affine or table candidates that
//! overrun it, which the bounds rule makes illegal) are counted but kept
//! out of the dense state; while any exist, the exact violation total
//! comes from [`crate::legality::check`], and once edits bring the
//! candidate back on grid the dense state is already exact. An edit
//! that invalidates a candidate (a table length change, a new node
//! without a domain index) drops its cached state; the next evaluation
//! rebuilds it cold and counts the rebuild, which is how the session
//! layer above classifies warm vs cold re-tunes.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::ops::Bound;

use crate::cost::{CostReport, CostTree, Evaluator, NodeCost, OffchipTotals};
use crate::dataflow::{DataflowGraph, Node, NodeId};
use crate::flat::EvalContext;
use crate::machine::MachineConfig;
use crate::mapping::{Mapping, ResolvedMapping};
use crate::mutate::AppliedEdit;
use crate::search::{CandidateEval, FigureOfMerit};

/// Stand-in for "lives forever" in lifetime sweeps. Any value past the
/// last production cycle yields the same peak; this one also never
/// overflows `+ 1`.
const FAR_FUTURE: i64 = i64::MAX / 4;

fn hist_add<K: Ord>(h: &mut BTreeMap<K, u32>, k: K) {
    *h.entry(k).or_insert(0) += 1;
}

fn hist_remove<K: Ord + std::fmt::Debug>(h: &mut BTreeMap<K, u32>, k: K) {
    match h.get_mut(&k) {
        Some(c) if *c > 1 => *c -= 1,
        Some(_) => {
            h.remove(&k);
        }
        None => panic!("histogram underflow at key {k:?}"),
    }
}

/// Everything both incremental engines derive from a (place, time)
/// pair, with the primitive repairs they share. PEs are indexed by
/// interned id (`y·cols + x`); nodes placed off the grid sit in no
/// per-PE list.
struct DenseState {
    place: Vec<(i64, i64)>,
    time: Vec<i64>,
    /// max(own time, consumer times); outputs are *not* extended here —
    /// the sweep substitutes [`FAR_FUTURE`] for them.
    last_use: Vec<i64>,
    cols: i64,
    rows: i64,
    /// Node ids per PE, ascending, indexed by interned PE id. Empty
    /// lists mean unoccupied (they stay allocated for reuse).
    pe_nodes: Vec<Vec<NodeId>>,
    /// Number of non-empty `pe_nodes` lists — the report's PEs-used.
    occupied: usize,
    /// Peak live bits per PE; `None` = unoccupied.
    peaks: Vec<Option<u64>>,
    /// Multiset of per-PE peaks; max key = global peak.
    peak_hist: BTreeMap<u64, u32>,
    /// PEs whose peak exceeds the machine's tile capacity.
    over_capacity: u64,
    /// Multiset of node times; max key + 1 = makespan.
    time_hist: BTreeMap<i64, u32>,
    tree: CostTree,
    /// PEs whose lifetimes may have moved, awaiting
    /// [`Self::refresh_peaks`].
    dirty_pes: Vec<usize>,
    /// Live-interval endpoints for one PE's peak re-sweep.
    events: Vec<(i64, i64)>,
}

impl DenseState {
    /// Derive every aggregate from scratch. Leaves start at zero;
    /// callers cost them ([`Self::cost_all`]) or mark them stale.
    fn build(
        graph: &DataflowGraph,
        machine: &MachineConfig,
        place: Vec<(i64, i64)>,
        time: Vec<i64>,
    ) -> DenseState {
        let n = place.len();
        let mut last_use = time.clone();
        for (id, node) in graph.nodes.iter().enumerate() {
            for &d in &node.deps {
                if time[id] > last_use[d as usize] {
                    last_use[d as usize] = time[id];
                }
            }
        }
        let pe_count = machine.cols as usize * machine.rows as usize;
        let mut this = DenseState {
            place,
            time,
            last_use,
            cols: i64::from(machine.cols),
            rows: i64::from(machine.rows),
            pe_nodes: vec![Vec::new(); pe_count],
            occupied: 0,
            peaks: vec![None; pe_count],
            peak_hist: BTreeMap::new(),
            over_capacity: 0,
            time_hist: BTreeMap::new(),
            tree: CostTree::new(),
            dirty_pes: Vec::new(),
            events: Vec::new(),
        };
        this.tree.reset(n);
        for id in 0..n {
            hist_add(&mut this.time_hist, this.time[id]);
            if let Some(pe) = this.pe_of(id) {
                // Ids arrive ascending: pushing keeps every list sorted.
                this.pe_nodes[pe].push(id as NodeId);
            }
        }
        this.dirty_pes = (0..pe_count)
            .filter(|&pe| !this.pe_nodes[pe].is_empty())
            .collect();
        this.occupied = this.dirty_pes.len();
        this.refresh_peaks(graph, machine.tile_bits, |_, _| {});
        this
    }

    /// Interned id of a place; `None` off grid.
    #[inline]
    fn pe_id(&self, (x, y): (i64, i64)) -> Option<usize> {
        (x >= 0 && y >= 0 && x < self.cols && y < self.rows).then(|| (y * self.cols + x) as usize)
    }

    /// Interned id of node `id`'s PE; `None` off grid.
    #[inline]
    fn pe_of(&self, id: usize) -> Option<usize> {
        self.pe_id(self.place[id])
    }

    /// Cost every leaf with `cost(id, place)` and refresh the tree.
    fn cost_all(&mut self, mut cost: impl FnMut(usize, &[(i64, i64)]) -> NodeCost) {
        for id in 0..self.place.len() {
            let c = cost(id, &self.place);
            self.tree.set_leaf(id, c);
        }
        self.tree.refresh();
    }

    /// Insert `id` into PE `pe`'s ascending list.
    fn pe_insert(&mut self, pe: usize, id: NodeId) {
        let list = &mut self.pe_nodes[pe];
        if list.is_empty() {
            self.occupied += 1;
        }
        let pos = list.binary_search(&id).expect_err("node already on PE");
        list.insert(pos, id);
    }

    /// Remove `id` from PE `pe`'s list; returns the position it held.
    fn pe_remove(&mut self, pe: usize, id: NodeId) -> usize {
        let list = &mut self.pe_nodes[pe];
        let pos = list.binary_search(&id).expect("node on its PE");
        list.remove(pos);
        if list.is_empty() {
            self.occupied -= 1;
        }
        pos
    }

    /// Set node `id`'s time, keeping the time histogram in step.
    /// Returns the replaced time.
    fn set_time(&mut self, id: usize, t: i64) -> i64 {
        let old = std::mem::replace(&mut self.time[id], t);
        hist_remove(&mut self.time_hist, old);
        hist_add(&mut self.time_hist, t);
        old
    }

    /// Recompute node `id`'s last use from its consumer list. Returns
    /// the replaced value when it changed.
    fn refresh_last_use(&mut self, id: usize, consumers: &[NodeId]) -> Option<i64> {
        let mut lu = self.time[id];
        for &c in consumers {
            lu = lu.max(self.time[c as usize]);
        }
        (lu != self.last_use[id]).then(|| std::mem::replace(&mut self.last_use[id], lu))
    }

    /// Replace PE `pe`'s peak, keeping the histogram and the
    /// over-capacity count in step.
    fn set_peak(&mut self, pe: usize, v: Option<u64>, tile_bits: u64) {
        if let Some(o) = self.peaks[pe] {
            hist_remove(&mut self.peak_hist, o);
            if o > tile_bits {
                self.over_capacity -= 1;
            }
        }
        if let Some(x) = v {
            hist_add(&mut self.peak_hist, x);
            if x > tile_bits {
                self.over_capacity += 1;
            }
        }
        self.peaks[pe] = v;
    }

    /// Re-sweep the peak live bits of every PE in `dirty_pes`, once
    /// each, then clear the marks. `changed` sees each PE whose peak
    /// moved, with the peak it replaced.
    fn refresh_peaks(
        &mut self,
        graph: &DataflowGraph,
        tile_bits: u64,
        mut changed: impl FnMut(usize, Option<u64>),
    ) {
        let width = u64::from(graph.width_bits);
        let mut pes = std::mem::take(&mut self.dirty_pes);
        pes.sort_unstable();
        pes.dedup();
        for &pe in &pes {
            let list = &self.pe_nodes[pe];
            let new = if list.is_empty() {
                None
            } else {
                self.events.clear();
                for &j in list {
                    let ju = j as usize;
                    let last = if graph.nodes[ju].output {
                        FAR_FUTURE
                    } else {
                        self.last_use[ju]
                    };
                    self.events.push((self.time[ju], 1));
                    self.events.push((last + 1, -1));
                }
                self.events.sort_unstable();
                let mut live = 0i64;
                let mut peak = 0i64;
                for &(_, d) in &self.events {
                    live += d;
                    peak = peak.max(live);
                }
                Some(peak as u64 * width)
            };
            let old = self.peaks[pe];
            if old != new {
                self.set_peak(pe, new, tile_bits);
                changed(pe, old);
            }
        }
        pes.clear();
        self.dirty_pes = pes;
    }

    /// Re-count the over-capacity PEs for a new tile capacity: peaks are
    /// capacity-independent.
    fn recount_over_capacity(&mut self, tile_bits: u64) {
        self.over_capacity = self
            .peak_hist
            .range((Bound::Excluded(tile_bits), Bound::Unbounded))
            .map(|(_, &c)| u64::from(c))
            .sum();
    }

    /// The cost report — bit-identical to `Evaluator::evaluate` on
    /// (place, time) when every place is on grid.
    fn report(&self, ev: &Evaluator<'_>, off: &OffchipTotals) -> CostReport {
        let cycles = self.time_hist.keys().next_back().map_or(0, |&t| t + 1);
        let peak = self.peak_hist.keys().next_back().copied().unwrap_or(0);
        ev.assemble(self.tree.total(), off, cycles, peak, self.occupied)
    }

    fn mapping(&self) -> ResolvedMapping {
        ResolvedMapping {
            place: self.place.clone(),
            time: self.time.clone(),
        }
    }
}

/// One recorded mutation of [`DeltaEvaluator`] state, with the value
/// it replaced — replaying a move's entries in reverse restores the
/// exact prior state without re-running any scheduling.
#[derive(Debug, Clone, Copy)]
enum UndoEntry {
    Place { node: usize, pe: (i64, i64) },
    RemovedFromPe { pe: u32, id: NodeId },
    InsertedToPe { pe: u32, id: NodeId },
    Time { id: NodeId, t: i64 },
    LastUse { id: NodeId, t: i64 },
    Peak { pe: u32, v: Option<u64> },
    Leaf { id: NodeId, cost: NodeCost },
}

/// Per-PE occupancy cursor shared across the pops of one move: the
/// sorted slot multiset of finalized smaller-id same-PE times, extended
/// as a cursor walks up the PE's membership list.
#[derive(Debug, Default)]
struct Occ {
    cursor: usize,
    slots: Vec<i64>,
}

/// Reusable per-move working buffers. Taken out of the evaluator at the
/// start of [`DeltaEvaluator::apply_move`] (so the borrow checker sees
/// them as locals) and put back at the end; cleared via epoch stamps and
/// `clear()`, never freed, so steady-state moves allocate nothing.
#[derive(Debug, Default)]
struct MoveScratch {
    heap: BinaryHeap<Reverse<NodeId>>,
    /// Dense per-PE occupancy cursors, validated by epoch stamp.
    occ: Vec<Occ>,
    occ_epoch: Vec<u64>,
    epoch: u64,
    /// Distinct remote consumer PEs for one node's re-cost.
    pes: Vec<(i64, i64)>,
    /// Multicast destinations (what-if path only).
    dests: Vec<(u32, u32)>,
}

/// Incremental evaluator over single-node placement moves.
///
/// Holds a placement (times always the [`retime`](crate::search::retime)
/// list schedule of that placement) plus every derived quantity the full
/// evaluator would compute, and repairs them in cone-sized work per
/// [`Self::apply_move`]. [`Self::report`] is bit-identical to
/// `Evaluator::evaluate` on [`Self::mapping`], by construction and by
/// debug-mode assertion.
pub struct DeltaEvaluator<'e, 'a> {
    ev: &'e Evaluator<'a>,
    graph: &'a DataflowGraph,
    machine: &'a MachineConfig,
    /// Shared flat-evaluation state: CSR consumer lists, the
    /// placement-independent cost prefixes and the off-chip totals.
    ctx: EvalContext,
    /// The derived state; every held place is on grid.
    st: DenseState,
    in_heap: Vec<bool>,
    /// Mutations of the most recent [`Self::apply_move`], for
    /// [`Self::undo`]. Cleared at the start of each move.
    journal: Vec<UndoEntry>,
    /// Reusable per-move buffers (see [`MoveScratch`]).
    scratch: MoveScratch,
    paranoid: bool,
}

impl<'e, 'a> DeltaEvaluator<'e, 'a> {
    /// Build from an initial placement (all places must be on-grid).
    /// Times are derived by list scheduling, exactly as
    /// [`crate::search::retime`] would.
    pub fn new(ev: &'e Evaluator<'a>, init_places: &[(i64, i64)]) -> Self {
        let graph = ev.graph();
        let machine = ev.machine();
        assert_eq!(
            init_places.len(),
            graph.len(),
            "placement length must match graph"
        );
        for &(x, y) in init_places {
            assert!(machine.contains(x, y), "initial place ({x},{y}) off-grid");
        }
        let rm = crate::search::retime(graph, init_places, machine);
        let ctx = EvalContext::new(ev);
        let mut st = DenseState::build(graph, machine, rm.place, rm.time);
        let mut scratch = MoveScratch::default();
        st.cost_all(|id, place| ctx.node_cost(ev, id, place, &mut scratch.pes, &mut scratch.dests));
        DeltaEvaluator {
            ev,
            graph,
            machine,
            ctx,
            st,
            in_heap: vec![false; graph.len()],
            journal: Vec::new(),
            scratch,
            paranoid: true,
        }
    }

    /// Disable (or re-enable) the per-move full-parity assertion that
    /// runs in debug builds. Useful for debug-build throughput tests;
    /// release builds never run the assertion either way.
    pub fn with_paranoia(mut self, on: bool) -> Self {
        self.paranoid = on;
        self
    }

    /// Current place of a node.
    pub fn place_of(&self, node: usize) -> (i64, i64) {
        self.st.place[node]
    }

    /// The current mapping (places + list-scheduled times).
    pub fn mapping(&self) -> ResolvedMapping {
        self.st.mapping()
    }

    /// Number of PEs whose peak live bits exceed the machine's tile
    /// capacity — the same count [`crate::legality::check`] reports as
    /// `StorageExceeded` violations.
    pub fn storage_violations(&self) -> u64 {
        self.st.over_capacity
    }

    /// The current cost report, bit-identical to running the full
    /// evaluator on [`Self::mapping`].
    pub fn report(&self) -> CostReport {
        self.st.report(self.ev, &self.ctx.offchip())
    }

    /// Score of the current mapping under `fom` (lower is better) —
    /// identical arithmetic to `ev.score(fom, &self.report())` under
    /// the evaluator's active cost backend.
    pub fn score(&self, fom: FigureOfMerit) -> f64 {
        self.ev.score(fom, &self.report())
    }

    /// Interned id of a held (on-grid) place.
    fn pid(&self, pe: (i64, i64)) -> usize {
        self.st.pe_id(pe).expect("held places are on grid")
    }

    /// Move `node` to `new_pe` (must be on-grid) and repair all cached
    /// state. Work is proportional to the retimed cone, the moved
    /// node's degree, and the affected PEs' populations — not the graph.
    ///
    /// To undo, apply the reverse move: all state is a pure function of
    /// the placement.
    pub fn apply_move(&mut self, node: usize, new_pe: (i64, i64)) {
        assert!(node < self.graph.len(), "node out of range");
        let Some(new_pid) = self.st.pe_id(new_pe) else {
            panic!("move target {new_pe:?} off-grid");
        };
        self.journal.clear();
        let old_pe = self.st.place[node];
        if old_pe == new_pe {
            return;
        }
        let id = node as NodeId;
        let old_pid = self.pid(old_pe);

        // Check the per-move buffers out of self so the borrow checker
        // sees them as locals, independent of the cached state.
        let mut s = std::mem::take(&mut self.scratch);
        let pe_count = self.st.pe_nodes.len();
        if s.occ.len() < pe_count {
            s.occ.resize_with(pe_count, Occ::default);
            s.occ_epoch.resize(pe_count, 0);
        }
        s.epoch += 1;
        s.heap.clear();

        // Membership: the PE→nodes index drives occupancy, peaks, and
        // the pes_used count.
        let t_old = self.st.time[node];
        let pos = self.st.pe_remove(old_pid, id);
        self.journal.push(UndoEntry::RemovedFromPe {
            pe: old_pid as u32,
            id,
        });
        // Later source-PE nodes may now schedule earlier — but only
        // those at or past the vacated slot: a node's gap scan never
        // consults slots above its own scheduled time.
        for &j in &self.st.pe_nodes[old_pid][pos..] {
            if self.st.time[j as usize] >= t_old {
                self.in_heap[j as usize] = true;
                s.heap.push(Reverse(j));
            }
        }
        // Later destination-PE nodes are dirtied when the moved node
        // pops (first, by id order) and its new slot is known — seeding
        // them all here would over-approximate.
        self.st.pe_insert(new_pid, id);
        self.journal.push(UndoEntry::InsertedToPe {
            pe: new_pid as u32,
            id,
        });
        self.st.place[node] = new_pe;
        self.journal.push(UndoEntry::Place { node, pe: old_pe });

        // The moved node reschedules; its consumers' wire-delay gaps
        // changed even if its time does not.
        if !self.in_heap[node] {
            self.in_heap[node] = true;
            s.heap.push(Reverse(id));
        }
        for &c in self.ctx.consumers(node) {
            if !self.in_heap[c as usize] {
                self.in_heap[c as usize] = true;
                s.heap.push(Reverse(c));
            }
        }

        // Retime the dirty set in increasing id order. Every quantity a
        // node's schedule consults (producer times, smaller-id same-PE
        // occupancy) is final by the time it pops, so one pass reaches
        // the list-schedule fixpoint.
        //
        // Occupancy is shared across pops on the same PE: pops arrive
        // in increasing id order (pushes only ever target ids above the
        // current pop), so each PE's slot multiset can be extended with
        // finalized times as a cursor walks up its membership list,
        // instead of re-collecting and re-sorting per pop. The cursors
        // live in a dense per-PE array validated by epoch stamp.
        self.st.dirty_pes.push(old_pid);
        self.st.dirty_pes.push(new_pid);
        while let Some(Reverse(i)) = s.heap.pop() {
            let iu = i as usize;
            self.in_heap[iu] = false;
            let pid = self.pid(self.st.place[iu]);
            let t_new = {
                let o = &mut s.occ[pid];
                if s.occ_epoch[pid] != s.epoch {
                    s.occ_epoch[pid] = s.epoch;
                    o.cursor = 0;
                    o.slots.clear();
                }
                let list = &self.st.pe_nodes[pid];
                while o.cursor < list.len() && list[o.cursor] < i {
                    let t = self.st.time[list[o.cursor] as usize];
                    let p = o.slots.partition_point(|&x| x < t);
                    debug_assert!(
                        o.slots.get(p) != Some(&t),
                        "finalized same-PE times are pairwise distinct"
                    );
                    o.slots.insert(p, t);
                    o.cursor += 1;
                }
                self.schedule_time_in(iu, &o.slots)
            };
            let t_old = self.st.time[iu];
            if iu == node {
                // The moved node's slot is new on this PE: later nodes
                // at or past it must reschedule around it, even when
                // the moved node's own time did not change.
                let list = &self.st.pe_nodes[pid];
                let pos = list.partition_point(|&j| j <= i);
                for &j in &list[pos..] {
                    if self.st.time[j as usize] >= t_new && !self.in_heap[j as usize] {
                        self.in_heap[j as usize] = true;
                        s.heap.push(Reverse(j));
                    }
                }
            }
            if t_new == t_old {
                continue;
            }
            self.st.set_time(iu, t_new);
            self.journal.push(UndoEntry::Time { id: i, t: t_old });
            self.st.dirty_pes.push(pid);

            // Ripple: same-PE successors at or past the perturbed slot
            // range (slots above a node's own time are never consulted
            // by its gap scan), and consumers.
            let lo = t_old.min(t_new);
            {
                let list = &self.st.pe_nodes[pid];
                let pos = list.partition_point(|&j| j <= i);
                for &j in &list[pos..] {
                    if self.st.time[j as usize] >= lo && !self.in_heap[j as usize] {
                        self.in_heap[j as usize] = true;
                        s.heap.push(Reverse(j));
                    }
                }
            }
            for &c in self.ctx.consumers(iu) {
                if !self.in_heap[c as usize] {
                    self.in_heap[c as usize] = true;
                    s.heap.push(Reverse(c));
                }
            }

            // A time change moves this value's production and possibly
            // the last use of its operands.
            if let Some(t) = self.st.refresh_last_use(iu, self.ctx.consumers(iu)) {
                self.journal.push(UndoEntry::LastUse { id: i, t });
            }
            for k in 0..self.graph.nodes[iu].deps.len() {
                let du = self.graph.nodes[iu].deps[k] as usize;
                if let Some(t) = self.st.refresh_last_use(du, self.ctx.consumers(du)) {
                    self.journal.push(UndoEntry::LastUse {
                        id: du as NodeId,
                        t,
                    });
                    let dpid = self.pid(self.st.place[du]);
                    self.st.dirty_pes.push(dpid);
                }
            }
        }

        // Re-cost the moved node (its reads and the messages it sends)
        // and its producers (the messages they send to it).
        let graph = self.graph;
        let producers = graph.nodes[node].deps.iter().map(|&d| d as usize);
        for du in std::iter::once(node).chain(producers) {
            self.journal.push(UndoEntry::Leaf {
                id: du as NodeId,
                cost: self.st.tree.leaf(du),
            });
            let c = self
                .ctx
                .node_cost(self.ev, du, &self.st.place, &mut s.pes, &mut s.dests);
            self.st.tree.update(du, c);
        }
        self.scratch = s;

        // Re-sweep peaks only where lifetimes could have moved.
        let journal = &mut self.journal;
        self.st
            .refresh_peaks(self.graph, self.machine.tile_bits, |pe, v| {
                journal.push(UndoEntry::Peak { pe: pe as u32, v });
            });

        if cfg!(debug_assertions) && self.paranoid {
            self.assert_parity();
        }
    }

    /// Revert the most recent [`Self::apply_move`] by replaying its
    /// journal in reverse: every entry restores the exact value the
    /// move overwrote, so no schedule, lifetime, or peak is recomputed.
    /// A second `undo` (or one after a no-op move) is a no-op.
    pub fn undo(&mut self) {
        while let Some(e) = self.journal.pop() {
            match e {
                UndoEntry::Place { node, pe } => self.st.place[node] = pe,
                UndoEntry::RemovedFromPe { pe, id } => self.st.pe_insert(pe as usize, id),
                UndoEntry::InsertedToPe { pe, id } => {
                    self.st.pe_remove(pe as usize, id);
                }
                UndoEntry::Time { id, t } => {
                    self.st.set_time(id as usize, t);
                }
                UndoEntry::LastUse { id, t } => self.st.last_use[id as usize] = t,
                UndoEntry::Peak { pe, v } => {
                    self.st.set_peak(pe as usize, v, self.machine.tile_bits);
                }
                UndoEntry::Leaf { id, cost } => self.st.tree.update(id as usize, cost),
            }
        }
        if cfg!(debug_assertions) && self.paranoid {
            self.assert_parity();
        }
    }

    /// The list-schedule time of `i` given current producer times and
    /// the sorted occupied slots of smaller-id same-PE nodes — the same
    /// rule as [`crate::search::retime`], node-at-a-time. The linear
    /// "advance past each occupied slot" scan is replaced by a binary
    /// search for the first gap: with pairwise-distinct slots (an
    /// invariant of the schedule rule — every slot was itself picked as
    /// a first gap) the dense prefix `slots[lo + j] == ready + j` is
    /// exactly the set of slots the scan would step over.
    fn schedule_time_in(&self, i: usize, slots: &[i64]) -> i64 {
        let n = &self.graph.nodes[i];
        let pe = self.st.place[i];
        let pe_u = (pe.0 as u32, pe.1 as u32);
        let mut ready = 0i64;
        for &d in &n.deps {
            let prod = self.st.place[d as usize];
            let prod_u = (prod.0 as u32, prod.1 as u32);
            ready = ready.max(self.st.time[d as usize] + self.machine.required_gap(prod_u, pe_u));
        }
        let lo = slots.partition_point(|&s| s < ready);
        let m = slots.len() - lo;
        let (mut left, mut right) = (0usize, m);
        while left < right {
            let mid = left + (right - left) / 2;
            if slots[lo + mid] == ready + mid as i64 {
                left = mid + 1;
            } else {
                right = mid;
            }
        }
        ready + left as i64
    }

    /// Assert bit-exact agreement with the full pipeline: times against
    /// [`crate::search::retime`], the report against
    /// `Evaluator::evaluate`, and the storage-violation count against
    /// [`crate::legality::tile_peaks`]. O(|V|+|E|) — runs automatically
    /// after every move in debug builds (see [`Self::with_paranoia`]).
    pub fn assert_parity(&self) {
        let rm = crate::search::retime(self.graph, &self.st.place, self.machine);
        assert_eq!(
            rm.time, self.st.time,
            "incremental retime departed from the full list schedule"
        );
        let full = self.ev.evaluate(&rm);
        let mine = self.report();
        assert_eq!(full, mine, "incremental report != full evaluate");
        let peaks = crate::legality::tile_peaks(self.graph, &rm, rm.makespan());
        assert_eq!(
            crate::legality::storage_violation_count(&peaks, self.machine.tile_bits),
            self.st.over_capacity,
            "incremental storage-violation count != full legality sweep"
        );
    }
}

/// Whether the edge `d → n` violates causality under the given static
/// places/times: 1 if the consumer runs before the producer's value can
/// arrive, else 0. Edges with an off-grid endpoint contribute 0 — the
/// full checker only counts causality when every place is on-grid, and
/// the u32 coordinate casts would be garbage otherwise. Pure in the
/// endpoints' (static) places and times, so adding and later removing
/// the same edge telescopes exactly.
fn edge_violation(
    machine: &MachineConfig,
    place: &[(i64, i64)],
    time: &[i64],
    d: usize,
    n: usize,
) -> u64 {
    let (px, py) = place[d];
    let (cx, cy) = place[n];
    if !machine.contains(px, py) || !machine.contains(cx, cy) {
        return 0;
    }
    let required = machine.required_gap((px as u32, py as u32), (cx as u32, cy as u32));
    u64::from(time[n] - time[d] < required)
}

/// Cached evaluation state of one resolvable candidate: the shared
/// [`DenseState`] over its static places/times, plus the legality
/// counters the full checker derives and the leaves awaiting recost.
struct CandState {
    st: DenseState,
    /// Nodes mapped off the grid; they sit in no per-PE list.
    oob: u64,
    /// Nodes scheduled before cycle 0.
    neg: u64,
    /// Causality-violating edges (per dep slot, duplicates counted),
    /// under the [`edge_violation`] convention.
    causality: u64,
    /// Elements per (PE id, cycle) of on-grid nodes.
    issue: HashMap<(u32, i64), u32>,
    /// Issue cells over the machine's width.
    issue_over: u64,
    /// Leaves whose [`NodeCost`] is stale. Flushed lazily at
    /// evaluation time, and only for legal candidates — costing an
    /// off-grid placement is meaningless.
    dirty: Vec<usize>,
}

impl CandState {
    /// Build from scratch for a resolved candidate — the same work the
    /// cold path does, cached.
    fn build(
        ev: &Evaluator<'_>,
        rm: ResolvedMapping,
        consumers: &[Vec<NodeId>],
        pes: &mut Vec<(i64, i64)>,
    ) -> CandState {
        let graph = ev.graph();
        let machine = ev.machine();
        let n = graph.len();
        let mut this = CandState {
            st: DenseState::build(graph, machine, rm.place, rm.time),
            oob: 0,
            neg: 0,
            causality: 0,
            issue: HashMap::new(),
            issue_over: 0,
            dirty: Vec::new(),
        };
        for (id, node) in graph.nodes.iter().enumerate() {
            this.count_node(machine, id, node, true);
        }
        if this.oob == 0 && this.dense_total() == 0 {
            this.st
                .cost_all(|id, place| ev.node_cost_in(id, place, &consumers[id], pes));
        } else {
            // Illegal now: defer costing until (if ever) edits make the
            // candidate legal — off-grid places cast to garbage u32
            // coordinates inside `node_cost`.
            this.dirty = (0..n).collect();
        }
        this
    }

    /// Add (`add`) or retract node `id`'s share of the bounds, causality
    /// and issue counters, using its current entries in the place/time
    /// arrays. Returns its PE id if on grid.
    fn count_node(
        &mut self,
        machine: &MachineConfig,
        id: usize,
        node: &Node,
        add: bool,
    ) -> Option<usize> {
        let bump = |c: &mut u64, v: u64| {
            if add {
                *c += v;
            } else {
                *c -= v;
            }
        };
        if self.st.time[id] < 0 {
            bump(&mut self.neg, 1);
        }
        for &d in &node.deps {
            let v = edge_violation(machine, &self.st.place, &self.st.time, d as usize, id);
            bump(&mut self.causality, v);
        }
        let Some(pe) = self.st.pe_of(id) else {
            bump(&mut self.oob, 1);
            return None;
        };
        let key = (pe as u32, self.st.time[id]);
        let over = u64::from(machine.issue_width) + 1;
        let c = self.issue.entry(key).or_insert(0);
        if add {
            *c += 1;
            if u64::from(*c) == over {
                self.issue_over += 1;
            }
        } else {
            if u64::from(*c) == over {
                self.issue_over -= 1;
            }
            *c -= 1;
            if *c == 0 {
                self.issue.remove(&key);
            }
        }
        Some(pe)
    }

    /// The violation total of an on-grid candidate, mirroring the full
    /// checker's phases.
    fn dense_total(&self) -> u64 {
        self.neg + self.causality + self.issue_over + self.st.over_capacity
    }

    /// Exact violation total. Off-grid nodes are illegal by the bounds
    /// rule and kept out of the dense state, so while any exist the
    /// total comes from the full checker, as in the flat engine.
    fn total(&self, graph: &DataflowGraph, machine: &MachineConfig) -> u64 {
        if self.oob > 0 {
            crate::legality::check(graph, &self.st.mapping(), machine).total_violations
        } else {
            self.dense_total()
        }
    }

    /// A node was appended with the given (statically resolved) place
    /// and time. `consumers` is the *post-edit* shared consumer index.
    fn repair_add(
        &mut self,
        ev: &Evaluator<'_>,
        consumers: &[Vec<NodeId>],
        id: usize,
        pe: (i64, i64),
        t: i64,
    ) {
        let graph = ev.graph();
        let machine = ev.machine();
        let node = &graph.nodes[id];
        self.st.place.push(pe);
        self.st.time.push(t);
        // No consumers yet: the new node's value dies at birth.
        self.st.last_use.push(t);
        hist_add(&mut self.st.time_hist, t);
        if let Some(pid) = self.count_node(machine, id, node, true) {
            // Largest id: inserting keeps the list ascending.
            self.st.pe_insert(pid, id as NodeId);
            self.st.dirty_pes.push(pid);
        }
        self.st.tree.push_leaf(NodeCost::default());
        self.dirty.push(id);
        // Each producer now sends one more def→use message.
        self.touch_producers(consumers, &node.deps);
        self.st.refresh_peaks(graph, machine.tile_bits, |_, _| {});
    }

    /// Consumerless node `r` was removed; ids above it shifted down.
    /// `consumers` is the *post-edit* shared consumer index.
    fn repair_remove(
        &mut self,
        ev: &Evaluator<'_>,
        consumers: &[Vec<NodeId>],
        r: usize,
        removed: &Node,
    ) {
        let graph = ev.graph();
        let machine = ev.machine();
        // Retract with the pre-compaction arrays: the removed node's
        // entries are still present and its deps all sit below it.
        if let Some(pid) = self.count_node(machine, r, removed, false) {
            self.st.pe_remove(pid, r as NodeId);
            self.st.dirty_pes.push(pid);
        }
        hist_remove(&mut self.st.time_hist, self.st.time[r]);
        if r + 1 < self.st.place.len() {
            // Uniform decrement keeps every list sorted; the ids above
            // `r` are each list's tail.
            for list in &mut self.st.pe_nodes {
                let from = list.partition_point(|&j| j < r as NodeId);
                for j in &mut list[from..] {
                    *j -= 1;
                }
            }
        }
        self.st.place.remove(r);
        self.st.time.remove(r);
        self.st.last_use.remove(r);
        self.st.tree.remove_leaf(r);
        self.dirty.retain(|&i| i != r);
        for i in self.dirty.iter_mut() {
            if *i > r {
                *i -= 1;
            }
        }
        // One fewer def→use message from each former producer.
        self.touch_producers(consumers, &removed.deps);
        self.st.refresh_peaks(graph, machine.tile_bits, |_, _| {});
    }

    /// Dep slot of `node` moved from `old_dep` to `new_dep`. Places and
    /// times are untouched; only one causality edge, the two producers'
    /// message costs, and their last-use lifetimes can change. The
    /// edited node's own leaf is unchanged — its operand count, input
    /// reads, and produced messages do not depend on who feeds it.
    fn repair_retarget(
        &mut self,
        ev: &Evaluator<'_>,
        consumers: &[Vec<NodeId>],
        node: usize,
        old_dep: usize,
        new_dep: usize,
    ) {
        if old_dep == new_dep {
            return;
        }
        let machine = ev.machine();
        let (place, time) = (&self.st.place, &self.st.time);
        self.causality -= edge_violation(machine, place, time, old_dep, node);
        self.causality += edge_violation(machine, place, time, new_dep, node);
        self.touch_producers(consumers, &[old_dep as NodeId, new_dep as NodeId]);
        self.st
            .refresh_peaks(ev.graph(), machine.tile_bits, |_, _| {});
    }

    /// Producers whose consumer lists changed: mark their leaves stale
    /// and, where their last use moved, their PEs for a peak re-sweep.
    fn touch_producers(&mut self, consumers: &[Vec<NodeId>], producers: &[NodeId]) {
        for &d in producers {
            let du = d as usize;
            if self.st.refresh_last_use(du, &consumers[du]).is_some() {
                if let Some(pid) = self.st.pe_of(du) {
                    self.st.dirty_pes.push(pid);
                }
            }
            self.dirty.push(du);
        }
    }

    /// Recost stale leaves, reusing the pool's def→use scratch buffer.
    /// Called only when the candidate is legal.
    fn flush(&mut self, ev: &Evaluator<'_>, consumers: &[Vec<NodeId>], pes: &mut Vec<(i64, i64)>) {
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
        for idx in std::mem::take(&mut self.dirty) {
            let c = ev.node_cost_in(idx, &self.st.place, &consumers[idx], pes);
            self.st.tree.update(idx, c);
        }
    }
}

/// A pool of candidate mappings kept evaluable across structural edits.
///
/// Feed it every [`AppliedEdit`] receipt (in order) via [`Self::apply`];
/// [`Self::evaluate`] then returns, for any candidate, exactly what
/// [`crate::search::evaluate_candidate`] would return against the
/// *current* graph and machine — same [`CandidateEval`] variant, same
/// violation count, bit-identical report and score — without re-walking
/// the graph when incremental repair sufficed.
///
/// The evaluator passed to [`Self::new`], [`Self::apply`], and
/// [`Self::evaluate`] must be configured identically each time (same
/// input placements, writeback, multicast) and must wrap the graph and
/// machine as evolved *only* through the applied edits.
pub struct DeltaCandidates {
    mappings: Vec<Mapping>,
    /// Shared consumer index of the current graph.
    consumers: Vec<Vec<NodeId>>,
    /// Nodes with no domain index — any makes affine candidates
    /// unresolvable.
    unindexed: usize,
    /// Refcount of DRAM-placed input reads per distinct element; the
    /// key count is the off-chip fetch count.
    dram_refs: HashMap<(u32, u32), u32>,
    /// Nodes marked as outputs.
    marked_outputs: u64,
    /// Nodes with at least one consumer (`len - nonsink` = sink count,
    /// the writeback set when nothing is marked).
    nonsink: u64,
    graph_len: usize,
    /// One cached state per candidate; `None` = unresolvable now, or
    /// invalidated and awaiting a lazy cold rebuild.
    states: Vec<Option<CandState>>,
    rebuilds: u64,
    /// Reusable def→use scratch threaded through leaf flushes, so warm
    /// re-evaluations (the `tune_warm` path) stop allocating per stale
    /// leaf.
    pes_scratch: Vec<(i64, i64)>,
}

impl DeltaCandidates {
    /// Build the pool, eagerly caching state for every candidate that
    /// resolves against the evaluator's current graph and machine.
    pub fn new(ev: &Evaluator<'_>, mappings: Vec<Mapping>) -> Self {
        let graph = ev.graph();
        let machine = ev.machine();
        let consumers = graph.consumers();
        let unindexed = graph.nodes.iter().filter(|n| n.index.is_empty()).count();
        let mut dram_refs: HashMap<(u32, u32), u32> = HashMap::new();
        for n in &graph.nodes {
            for (input, flat) in n.expr.input_reads() {
                if ev.dram_input(input) {
                    *dram_refs.entry((input, flat)).or_insert(0) += 1;
                }
            }
        }
        let marked_outputs = graph.nodes.iter().filter(|n| n.output).count() as u64;
        let nonsink = consumers.iter().filter(|c| !c.is_empty()).count() as u64;
        let mut pes_scratch = Vec::new();
        let states = mappings
            .iter()
            .map(|m| {
                m.resolve(graph, machine)
                    .ok()
                    .map(|rm| CandState::build(ev, rm, &consumers, &mut pes_scratch))
            })
            .collect();
        DeltaCandidates {
            mappings,
            consumers,
            unindexed,
            dram_refs,
            marked_outputs,
            nonsink,
            graph_len: graph.len(),
            states,
            rebuilds: 0,
            pes_scratch,
        }
    }

    /// Number of candidates in the pool.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// How many candidates have been rebuilt cold at evaluation time
    /// because an edit invalidated their cached state. Zero across an
    /// edit/evaluate cycle means every evaluation was served warm.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether candidate `i`'s mapping resolves against the current
    /// graph — the same predicate as `Mapping::resolve`, answered from
    /// maintained counters.
    fn resolvable(&self, i: usize) -> bool {
        match &self.mappings[i] {
            Mapping::Affine(_) => self.unindexed == 0,
            Mapping::Table(t) => t.place.len() == self.graph_len && t.time.len() == self.graph_len,
        }
    }

    /// Fold one applied edit into the shared indexes and every cached
    /// candidate state. `ev` must wrap the *post-edit* graph/machine.
    pub fn apply(&mut self, ev: &Evaluator<'_>, edit: &AppliedEdit) {
        let graph = ev.graph();
        match edit {
            AppliedEdit::AddNode { id } => {
                let node = &graph.nodes[*id as usize];
                self.consumers.push(Vec::new());
                for &d in &node.deps {
                    let du = d as usize;
                    if self.consumers[du].is_empty() {
                        self.nonsink += 1;
                    }
                    // The new id is the largest: order is preserved.
                    self.consumers[du].push(*id);
                }
                if node.index.is_empty() {
                    self.unindexed += 1;
                }
                for (input, flat) in node.expr.input_reads() {
                    if ev.dram_input(input) {
                        *self.dram_refs.entry((input, flat)).or_insert(0) += 1;
                    }
                }
                if node.output {
                    self.marked_outputs += 1;
                }
                self.graph_len += 1;
            }
            AppliedEdit::RemoveNode { node, .. } => {
                if node.index.is_empty() {
                    self.unindexed -= 1;
                }
                for (input, flat) in node.expr.input_reads() {
                    if ev.dram_input(input) {
                        match self.dram_refs.get_mut(&(input, flat)) {
                            Some(c) if *c > 1 => *c -= 1,
                            Some(_) => {
                                self.dram_refs.remove(&(input, flat));
                            }
                            None => panic!("DRAM refcount underflow"),
                        }
                    }
                }
                if node.output {
                    self.marked_outputs -= 1;
                }
                self.graph_len -= 1;
                // Compaction renumbers entries in every list; rebuild.
                self.consumers = graph.consumers();
                self.nonsink = self.consumers.iter().filter(|c| !c.is_empty()).count() as u64;
            }
            AppliedEdit::RetargetEdge {
                node,
                old_dep,
                new_dep,
                ..
            } => {
                if old_dep != new_dep {
                    let ou = *old_dep as usize;
                    let pos = self.consumers[ou]
                        .binary_search(node)
                        .expect("retargeted consumer recorded on old producer");
                    self.consumers[ou].remove(pos);
                    if self.consumers[ou].is_empty() {
                        self.nonsink -= 1;
                    }
                    let nu = *new_dep as usize;
                    if self.consumers[nu].is_empty() {
                        self.nonsink += 1;
                    }
                    let pos = match self.consumers[nu].binary_search(node) {
                        Ok(p) | Err(p) => p,
                    };
                    self.consumers[nu].insert(pos, *node);
                }
            }
            AppliedEdit::ResizeTile { .. } => {}
        }
        debug_assert_eq!(self.graph_len, graph.len(), "edits applied out of order");

        for i in 0..self.mappings.len() {
            if !self.resolvable(i) {
                self.states[i] = None;
                continue;
            }
            let Some(state) = self.states[i].as_mut() else {
                // Invalidated earlier; rebuilt lazily at evaluation.
                continue;
            };
            match edit {
                AppliedEdit::AddNode { id } => {
                    let Mapping::Affine(am) = &self.mappings[i] else {
                        unreachable!("a length change drops table candidates")
                    };
                    let idu = *id as usize;
                    let n = &graph.nodes[idu];
                    let pe = am.place.eval(&n.index, ev.machine().cols);
                    let t = am.time.eval(&n.index);
                    state.repair_add(ev, &self.consumers, idu, pe, t);
                }
                AppliedEdit::RemoveNode { id, node } => {
                    state.repair_remove(ev, &self.consumers, *id as usize, node);
                }
                AppliedEdit::RetargetEdge {
                    node,
                    old_dep,
                    new_dep,
                    ..
                } => {
                    state.repair_retarget(
                        ev,
                        &self.consumers,
                        *node as usize,
                        *old_dep as usize,
                        *new_dep as usize,
                    );
                }
                AppliedEdit::ResizeTile { .. } => {
                    state.st.recount_over_capacity(ev.machine().tile_bits);
                }
            }
        }
    }

    /// Evaluate candidate `i` against the current graph/machine —
    /// bit-identical to the cold path, cone-sized work when the cached
    /// state survived the edits since the last call.
    pub fn evaluate(&mut self, i: usize, ev: &Evaluator<'_>, fom: FigureOfMerit) -> CandidateEval {
        if !self.resolvable(i) {
            self.states[i] = None;
            return CandidateEval::Unresolvable;
        }
        if self.states[i].is_none() {
            let rm = self.mappings[i]
                .resolve(ev.graph(), ev.machine())
                .expect("resolvable candidate must resolve");
            self.states[i] = Some(CandState::build(
                ev,
                rm,
                &self.consumers,
                &mut self.pes_scratch,
            ));
            self.rebuilds += 1;
        }
        let state = self.states[i].as_mut().expect("state just ensured");
        let total = state.total(ev.graph(), ev.machine());
        if total > 0 {
            return CandidateEval::Illegal(total);
        }
        state.flush(ev, &self.consumers, &mut self.pes_scratch);
        let writeback = if ev.writeback_on() {
            if self.marked_outputs > 0 {
                self.marked_outputs
            } else {
                self.graph_len as u64 - self.nonsink
            }
        } else {
            0
        };
        let off = ev.offchip_from_count(self.dram_refs.len() as u64 + writeback);
        let report = state.st.report(ev, &off);
        let score = ev.score(fom, &report);
        CandidateEval::Legal {
            resolved: state.st.mapping(),
            report,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CExpr;
    use crate::legality::{check, LegalityError};
    use crate::search::retime;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A layered random DAG: `n` nodes, each depending on up to two
    /// earlier ones.
    fn random_dag(n: u32, seed: u64) -> DataflowGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DataflowGraph::new("dag", 32);
        for i in 0..n {
            let ndeps = rng.random_range(0..=2.min(i));
            let mut deps = Vec::new();
            for _ in 0..ndeps {
                deps.push(rng.random_range(0..i));
            }
            deps.sort_unstable();
            deps.dedup();
            let expr = match deps.len() {
                0 => CExpr::konst(Value::real(1.0)),
                1 => CExpr::dep(0),
                _ => CExpr::dep(0).add(CExpr::dep(1)),
            };
            let id = g.add_node(expr, deps, vec![i as i64]);
            if i % 7 == 0 {
                g.mark_output(id);
            }
        }
        g
    }

    #[test]
    fn random_moves_stay_bit_exact() {
        let g = random_dag(60, 3);
        let m = MachineConfig::n5(3, 3);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..120 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..3i64), rng.random_range(0..3i64));
            delta.apply_move(node, pe);
            // apply_move already asserts parity in debug builds; check
            // explicitly so release test runs verify too.
            delta.assert_parity();
        }
    }

    #[test]
    fn same_pe_move_is_a_noop() {
        let g = random_dag(20, 1);
        let m = MachineConfig::n5(2, 2);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let before = delta.report();
        let pe = delta.place_of(5);
        delta.apply_move(5, pe);
        assert_eq!(before, delta.report());
    }

    #[test]
    fn reverse_move_restores_the_exact_report() {
        let g = random_dag(40, 5);
        let m = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let before = delta.report();
        let old = delta.place_of(11);
        let target = if old == (0, 0) { (1, 0) } else { (0, 0) };
        delta.apply_move(11, target);
        delta.apply_move(11, old);
        assert_eq!(before, delta.report());
        assert_eq!(delta.mapping(), retime(&g, &init.place, &m));
    }

    #[test]
    fn undo_restores_the_exact_state_without_rescheduling() {
        let g = random_dag(40, 6);
        let m = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let before_rm = delta.mapping();
            let before_rep = delta.report();
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..3i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            delta.undo();
            assert_eq!(before_rm, delta.mapping());
            assert_eq!(before_rep, delta.report());
            // A second undo (journal drained) is a no-op.
            delta.undo();
            assert_eq!(before_rep, delta.report());
            // Leave some moves applied so later rounds start elsewhere.
            if rng.random::<f64>() < 0.5 {
                delta.apply_move(node, pe);
            }
        }
    }

    #[test]
    fn storage_violations_match_full_legality_check() {
        let g = random_dag(50, 8);
        let mut m = MachineConfig::n5(2, 2);
        m.tile_bits = 4 * 32; // tiny tiles: hoarding PEs go over
        m.issue_width = 64; // keep issue legal while we pile nodes up
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..60 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..2i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            let rm = delta.mapping();
            let rep = check(&g, &rm, &m);
            let storage = rep
                .errors
                .iter()
                .filter(|e| matches!(e, LegalityError::StorageExceeded { .. }))
                .count() as u64;
            // The checker caps recorded errors at 64; with 4 PEs we are
            // far below the cap, so counts are exact.
            assert_eq!(delta.storage_violations(), storage);
        }
    }

    #[test]
    fn report_matches_evaluator_with_multicast_and_local_inputs() {
        use crate::affine::IdxExpr;
        use crate::mapping::{InputPlacement, PlaceExpr};
        let mut g = DataflowGraph::new("mc", 32);
        let x = g.add_input("X", vec![8]);
        let src = g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        for i in 1..8i64 {
            let id = g.add_node(
                CExpr::dep(0).add(CExpr::input(x, i as u32)),
                vec![src],
                vec![i],
            );
            if i == 7 {
                g.mark_output(id);
            }
        }
        let m = MachineConfig::n5(4, 2);
        let ev = Evaluator::new(&g, &m)
            .with_multicast(true)
            .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::c(0))))
            .with_writeback(true);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..4i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            delta.assert_parity();
        }
    }

    #[test]
    fn empty_graph_reports_zero() {
        let g = DataflowGraph::new("empty", 32);
        let m = MachineConfig::linear(2);
        let ev = Evaluator::new(&g, &m);
        let delta = DeltaEvaluator::new(&ev, &[]);
        let rep = delta.report();
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.pes_used, 0);
        assert_eq!(delta.storage_violations(), 0);
    }

    // ------------------------------------------------------------------
    // DeltaCandidates: structural-edit repair parity.
    // ------------------------------------------------------------------

    use crate::affine::IdxExpr;
    use crate::mapping::{AffineMap, LinearOrder, Mapping, PlaceExpr};
    use crate::mutate::{apply_edit, GraphEdit};
    use crate::search::{evaluate_candidate, CandidateEval, FigureOfMerit, MappingCandidate};

    fn assert_same_eval(warm: &CandidateEval, cold: &CandidateEval, ctx: &str) {
        match (warm, cold) {
            (CandidateEval::Unresolvable, CandidateEval::Unresolvable) => {}
            (CandidateEval::Illegal(a), CandidateEval::Illegal(b)) => {
                assert_eq!(a, b, "violation counts differ: {ctx}");
            }
            (
                CandidateEval::Legal {
                    resolved: ra,
                    report: pa,
                    score: sa,
                },
                CandidateEval::Legal {
                    resolved: rb,
                    report: pb,
                    score: sb,
                },
            ) => {
                assert_eq!(ra, rb, "resolved mappings differ: {ctx}");
                assert_eq!(pa, pb, "reports differ: {ctx}");
                assert_eq!(
                    sa.to_bits(),
                    sb.to_bits(),
                    "scores not bit-identical: {ctx}"
                );
            }
            _ => panic!("variant mismatch ({ctx}): warm {warm:?} vs cold {cold:?}"),
        }
    }

    /// The candidate mix every parity test drives: one that goes
    /// off-grid on big graphs, one causality-tight, one always legal
    /// (times spread past the grid diameter), and a fixed table.
    fn candidate_mix(g: &DataflowGraph) -> Vec<Mapping> {
        vec![
            Mapping::Affine(AffineMap {
                place: PlaceExpr::Linear {
                    id: IdxExpr::i(),
                    order: LinearOrder::RowMajor,
                },
                time: IdxExpr::i(),
            }),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 3),
                time: IdxExpr::i(),
            }),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 3),
                time: IdxExpr::i() * 4,
            }),
            Mapping::serial(g),
        ]
    }

    fn random_edit(rng: &mut StdRng, g: &DataflowGraph, next_idx: &mut i64) -> GraphEdit {
        loop {
            match rng.random_range(0..10u32) {
                0..=3 => {
                    let n = g.len() as u32;
                    let (expr, deps) = if n == 0 || rng.random_range(0..4u32) == 0 {
                        (CExpr::konst(Value::real(1.0)), vec![])
                    } else if n == 1 || rng.random_range(0..2u32) == 0 {
                        (CExpr::dep(0), vec![rng.random_range(0..n)])
                    } else {
                        let a = rng.random_range(0..n);
                        let b = rng.random_range(0..n);
                        (CExpr::dep(0).add(CExpr::dep(1)), vec![a.min(b), a.max(b)])
                    };
                    *next_idx += 1;
                    return GraphEdit::AddNode {
                        expr,
                        deps,
                        index: vec![*next_idx],
                        output: rng.random_range(0..5u32) == 0,
                    };
                }
                4..=5 => {
                    let cons = g.consumers();
                    let sinks: Vec<u32> = (0..g.len() as u32)
                        .filter(|&i| cons[i as usize].is_empty())
                        .collect();
                    if sinks.is_empty() {
                        continue;
                    }
                    return GraphEdit::RemoveNode {
                        id: sinks[rng.random_range(0..sinks.len())],
                    };
                }
                6..=8 => {
                    let with_deps: Vec<u32> = g
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| !n.deps.is_empty())
                        .map(|(i, _)| i as u32)
                        .collect();
                    if with_deps.is_empty() {
                        continue;
                    }
                    let node = with_deps[rng.random_range(0..with_deps.len())];
                    let slot = rng.random_range(0..g.nodes[node as usize].deps.len() as u32);
                    return GraphEdit::RetargetEdge {
                        node,
                        slot,
                        new_dep: rng.random_range(0..node),
                    };
                }
                _ => {
                    let bits = [4 * 32u64, 1 << 12, 1 << 20];
                    return GraphEdit::ResizeTile {
                        tile_bits: bits[rng.random_range(0..bits.len())],
                    };
                }
            }
        }
    }

    #[test]
    fn random_edit_streams_keep_candidates_bit_exact() {
        for seed in 0..3u64 {
            let mut g = random_dag(30, 11 + seed);
            let mut m = MachineConfig::n5(3, 2);
            let mappings = candidate_mix(&g);
            let mut dc = {
                let ev = Evaluator::new(&g, &m);
                DeltaCandidates::new(&ev, mappings.clone())
            };
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut next_idx = g.len() as i64 - 1;
            for step in 0..50 {
                let edit = random_edit(&mut rng, &g, &mut next_idx);
                let receipt = apply_edit(&mut g, &mut m, &edit).expect("generated edits are valid");
                let ev = Evaluator::new(&g, &m);
                dc.apply(&ev, &receipt);
                for (i, mapping) in mappings.iter().enumerate() {
                    let warm = dc.evaluate(i, &ev, FigureOfMerit::Edp);
                    let cold = evaluate_candidate(
                        &ev,
                        &g,
                        &m,
                        &MappingCandidate::new(format!("c{i}"), mapping.clone()),
                        FigureOfMerit::Edp,
                    );
                    assert_same_eval(&warm, &cold, &format!("seed {seed} step {step} cand {i}"));
                }
            }
        }
    }

    #[test]
    fn off_grid_tail_round_trips_through_on_grid() {
        // Place ⌊i/2⌋ row-major, time 4i: nodes 0..12 fill a 3×2 grid
        // two to a PE, the tail falls off it. Odd nodes form a chain and
        // even nodes are sinks, so every on-grid PE peaks at one value —
        // until the off-grid tail reads node 0 and stretches its
        // lifetime over node 1's. Removing the tail must bring PE 0's
        // peak back down.
        let mut g = DataflowGraph::new("tail", 32);
        for i in 0..16u32 {
            let deps = match i {
                12.. => vec![0],
                3.. if i % 2 == 1 => vec![i - 2],
                _ => vec![],
            };
            let expr = if deps.is_empty() {
                CExpr::konst(Value::real(1.0))
            } else {
                CExpr::dep(0)
            };
            g.add_node(expr, deps, vec![i64::from(i)]);
        }
        let mut m = MachineConfig::n5(3, 2);
        let affine = Mapping::Affine(AffineMap {
            place: PlaceExpr::Linear {
                id: IdxExpr::i().div(2),
                order: LinearOrder::RowMajor,
            },
            time: IdxExpr::i() * 4,
        });
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![affine.clone()])
        };
        let mut step = |dc: &mut DeltaCandidates, g: &mut DataflowGraph, edit: GraphEdit| {
            let receipt = apply_edit(g, &mut m, &edit).expect("valid edit");
            let ev = Evaluator::new(g, &m);
            dc.apply(&ev, &receipt);
            let warm = dc.evaluate(0, &ev, FigureOfMerit::Edp);
            let cold = evaluate_candidate(
                &ev,
                g,
                &m,
                &MappingCandidate::new("pairs", affine.clone()),
                FigureOfMerit::Edp,
            );
            let ctx = format!("{} nodes", g.len());
            assert_same_eval(&warm, &cold, &ctx);
            assert_eq!(
                matches!(warm, CandidateEval::Legal { .. }),
                g.len() <= 12,
                "legal exactly when on grid: {ctx}"
            );
            receipt
        };
        // The last node never has consumers: peel the tail off, past
        // the point where the candidate comes back on grid.
        let mut removed = Vec::new();
        while g.len() > 10 {
            let id = g.len() as u32 - 1;
            match step(&mut dc, &mut g, GraphEdit::RemoveNode { id }) {
                AppliedEdit::RemoveNode { node, .. } => removed.push(node),
                other => panic!("unexpected receipt {other:?}"),
            }
        }
        // And grow it back off the grid.
        for node in removed.into_iter().rev() {
            let edit = GraphEdit::AddNode {
                expr: node.expr,
                deps: node.deps,
                index: node.index,
                output: node.output,
            };
            step(&mut dc, &mut g, edit);
        }
        assert_eq!(g.len(), 16);
        assert_eq!(dc.rebuilds(), 0, "every step repaired warm");
    }

    #[test]
    fn table_candidates_drop_on_length_change_and_rebuild_lazily() {
        let mut g = random_dag(10, 2);
        let mut m = MachineConfig::n5(2, 2);
        let serial = Mapping::serial(&g);
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![serial.clone()])
        };
        let add = GraphEdit::AddNode {
            expr: CExpr::konst(Value::real(2.0)),
            deps: vec![],
            index: vec![10],
            output: false,
        };
        let r = apply_edit(&mut g, &mut m, &add).unwrap();
        let added = match r {
            AppliedEdit::AddNode { id } => id,
            _ => unreachable!(),
        };
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
            assert!(matches!(
                dc.evaluate(0, &ev, FigureOfMerit::Energy),
                CandidateEval::Unresolvable
            ));
            assert_eq!(dc.rebuilds(), 0, "unresolvable is not a rebuild");
        }
        let r = apply_edit(&mut g, &mut m, &GraphEdit::RemoveNode { id: added }).unwrap();
        let ev = Evaluator::new(&g, &m);
        dc.apply(&ev, &r);
        let warm = dc.evaluate(0, &ev, FigureOfMerit::Energy);
        let cold = evaluate_candidate(
            &ev,
            &g,
            &m,
            &MappingCandidate::new("serial", serial),
            FigureOfMerit::Energy,
        );
        assert_same_eval(&warm, &cold, "table restored to matching length");
        assert_eq!(dc.rebuilds(), 1, "length restored via one cold rebuild");
    }

    #[test]
    fn unindexed_node_cold_rebuilds_affine_candidates() {
        let mut g = random_dag(12, 3);
        let mut m = MachineConfig::n5(3, 2);
        let affine = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 3),
            time: IdxExpr::i() * 4,
        });
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![affine.clone()])
        };
        // An irregular (index-less) node makes every affine candidate
        // unresolvable.
        let add = GraphEdit::AddNode {
            expr: CExpr::konst(Value::real(1.0)),
            deps: vec![],
            index: vec![],
            output: false,
        };
        let r = apply_edit(&mut g, &mut m, &add).unwrap();
        let added = match r {
            AppliedEdit::AddNode { id } => id,
            _ => unreachable!(),
        };
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
            assert!(matches!(
                dc.evaluate(0, &ev, FigureOfMerit::Edp),
                CandidateEval::Unresolvable
            ));
        }
        let r = apply_edit(&mut g, &mut m, &GraphEdit::RemoveNode { id: added }).unwrap();
        let ev = Evaluator::new(&g, &m);
        dc.apply(&ev, &r);
        let warm = dc.evaluate(0, &ev, FigureOfMerit::Edp);
        let cold = evaluate_candidate(
            &ev,
            &g,
            &m,
            &MappingCandidate::new("affine", affine),
            FigureOfMerit::Edp,
        );
        assert_same_eval(&warm, &cold, "affine resolvable again");
        assert_eq!(dc.rebuilds(), 1);
    }

    #[test]
    fn resize_repair_stays_warm_through_an_illegal_excursion() {
        let mut g = random_dag(20, 4);
        let mut m = MachineConfig::n5(3, 2);
        let affine = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 3),
            time: IdxExpr::i() * 4,
        });
        let old_bits = m.tile_bits;
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![affine.clone()])
        };
        let check_parity = |dc: &mut DeltaCandidates, g: &DataflowGraph, m: &MachineConfig, ctx| {
            let ev = Evaluator::new(g, m);
            let warm = dc.evaluate(0, &ev, FigureOfMerit::Footprint);
            let cold = evaluate_candidate(
                &ev,
                g,
                m,
                &MappingCandidate::new("affine", affine.clone()),
                FigureOfMerit::Footprint,
            );
            assert_same_eval(&warm, &cold, ctx);
            warm
        };
        assert!(matches!(
            check_parity(&mut dc, &g, &m, "before resize"),
            CandidateEval::Legal { .. }
        ));
        // Shrink tiles far below any peak: storage violations appear.
        let r = apply_edit(&mut g, &mut m, &GraphEdit::ResizeTile { tile_bits: 1 }).unwrap();
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
        }
        assert!(matches!(
            check_parity(&mut dc, &g, &m, "tiny tiles"),
            CandidateEval::Illegal(_)
        ));
        // Restore: legal again, and never rebuilt cold along the way.
        let r = apply_edit(
            &mut g,
            &mut m,
            &GraphEdit::ResizeTile {
                tile_bits: old_bits,
            },
        )
        .unwrap();
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
        }
        assert!(matches!(
            check_parity(&mut dc, &g, &m, "restored tiles"),
            CandidateEval::Legal { .. }
        ));
        assert_eq!(dc.rebuilds(), 0, "resize round-trip repaired warm");
    }

    #[test]
    fn dram_and_writeback_counters_stay_exact_under_edits() {
        let mut g = DataflowGraph::new("io", 32);
        let x = g.add_input("X", vec![8]);
        g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        g.add_node(CExpr::input(x, 1).add(CExpr::input(x, 0)), vec![], vec![1]);
        let mut m = MachineConfig::n5(3, 2);
        let affine = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 3),
            time: IdxExpr::i() * 4,
        });
        // Must be configured identically on every call.
        fn make_ev<'a>(g: &'a DataflowGraph, m: &'a MachineConfig) -> Evaluator<'a> {
            Evaluator::new(g, m).with_writeback(true)
        }
        let mut dc = {
            let ev = make_ev(&g, &m);
            DeltaCandidates::new(&ev, vec![affine.clone()])
        };
        let mut rng = StdRng::seed_from_u64(77);
        let mut next_idx = 1i64;
        for step in 0..40 {
            let edit = if g.len() < 3 || rng.random_range(0..3u32) > 0 {
                let n = g.len() as u32;
                let elem = rng.random_range(0..8u32);
                let (expr, deps) = if rng.random_range(0..2u32) == 0 {
                    (CExpr::input(x, elem), vec![])
                } else {
                    (
                        CExpr::input(x, elem).add(CExpr::dep(0)),
                        vec![rng.random_range(0..n)],
                    )
                };
                next_idx += 1;
                GraphEdit::AddNode {
                    expr,
                    deps,
                    index: vec![next_idx],
                    output: rng.random_range(0..3u32) == 0,
                }
            } else {
                let cons = g.consumers();
                let sinks: Vec<u32> = (0..g.len() as u32)
                    .filter(|&i| cons[i as usize].is_empty())
                    .collect();
                GraphEdit::RemoveNode {
                    id: sinks[rng.random_range(0..sinks.len())],
                }
            };
            let receipt = apply_edit(&mut g, &mut m, &edit).expect("valid edit");
            let ev = make_ev(&g, &m);
            dc.apply(&ev, &receipt);
            let warm = dc.evaluate(0, &ev, FigureOfMerit::Energy);
            let cold = evaluate_candidate(
                &ev,
                &g,
                &m,
                &MappingCandidate::new("affine", affine.clone()),
                FigureOfMerit::Energy,
            );
            assert_same_eval(&warm, &cold, &format!("io step {step}"));
        }
    }
}
