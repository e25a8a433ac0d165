//! Seeded input generators. Everything the server sees is built here
//! from `--seed`: graphs (from `fm-kernels` and the builders below),
//! candidate lists, simulation inputs and session edit streams. The
//! same seed always yields the same requests.

use fm_core::affine::IdxExpr;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::mapping::{AffineMap, LinearOrder, Mapping, PlaceExpr};
use fm_core::mutate::GraphEdit;
use fm_core::search::MappingCandidate;
use fm_core::value::Value;
use fm_core::MachineConfig;
use fm_serve::WireCandidate;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) under one workload seed, so
    /// adding a draw in one generator never shifts another's inputs.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i);
            v.swap(i, j);
        }
    }
}

/// Sizes spread evenly over `lo..=hi` with a seeded jitter of less than
/// one step, so every seed draws nearly the same size mix and run-level
/// medians do not move with the seed.
pub fn stratified(rng: &mut Rng, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let step = (hi - lo) as f64 / count as f64;
    (0..count)
        .map(|k| lo + (step * (k as f64 + rng.unit())) as usize)
        .collect()
}

/// Split a target node count into a 2-D `rows × cols` domain with a
/// seeded aspect ratio (both sides at least `min_side`).
pub fn domain_2d(rng: &mut Rng, nodes: usize, min_side: usize) -> (usize, usize) {
    let side = (nodes as f64).sqrt();
    let lo = (side * 0.75).max(min_side as f64) as usize;
    let hi = (side * 1.33) as usize;
    let rows = rng.range(lo, hi.max(lo));
    let cols = (nodes / rows).max(min_side);
    (rows, cols)
}

/// A 2-D wavefront over a `rows × cols` domain: node `(i, j)` sums its
/// north and west neighbours, and its north-west one when `diagonal`.
/// The dependence pattern of edit distance with one-operation
/// expressions, so a graph's wire frame stays small.
pub fn wavefront(rows: usize, cols: usize, diagonal: bool) -> DataflowGraph {
    let mut g = DataflowGraph::new("wavefront", 32);
    let id = |i: usize, j: usize| (i * cols + j) as u32;
    for i in 0..rows {
        for j in 0..cols {
            let mut deps = Vec::with_capacity(3);
            if i > 0 {
                deps.push(id(i - 1, j));
            }
            if j > 0 {
                deps.push(id(i, j - 1));
            }
            if diagonal && i > 0 && j > 0 {
                deps.push(id(i - 1, j - 1));
            }
            let expr = (1..deps.len() as u32).fold(
                if deps.is_empty() {
                    CExpr::konst(Value::real(1.0))
                } else {
                    CExpr::dep(0)
                },
                |e, k| e.add(CExpr::dep(k)),
            );
            g.add_node(expr, deps, vec![i as i64, j as i64]);
        }
    }
    g
}

/// `at (i mod p) laid out in order, time ⌊i/p⌋·(m+p) + (i mod p) + j`:
/// the corrected systolic skew over a `· × m` domain, with PE ids laid
/// out on the grid in `order`. Serpentine keeps neighbouring ids one hop
/// apart; row-major jumps a whole row at each wrap.
pub fn skew(p: i64, m: usize, order: LinearOrder, transpose: bool) -> Mapping {
    let (a, b) = if transpose {
        (IdxExpr::j(), IdxExpr::i())
    } else {
        (IdxExpr::i(), IdxExpr::j())
    };
    Mapping::Affine(AffineMap {
        place: PlaceExpr::Linear {
            id: a.clone() % p,
            order,
        },
        time: a.clone().div(p) * (m as i64 + p) + (a % p) + b,
    })
}

/// The paper's literal schedule `time ⌊i/p⌋·m + j`, which is illegal
/// for `p > 1`: it keeps illegal candidates in every wide search.
pub fn literal(p: i64, m: usize) -> Mapping {
    Mapping::Affine(AffineMap {
        place: PlaceExpr::Linear {
            id: IdxExpr::i() % p,
            order: LinearOrder::Serpentine,
        },
        time: IdxExpr::i().div(p) * m as i64 + IdxExpr::j(),
    })
}

/// Wire form of a candidate list.
pub fn wire(candidates: &[MappingCandidate]) -> Vec<WireCandidate> {
    candidates
        .iter()
        .map(|c| WireCandidate {
            label: c.label.clone(),
            mapping: c.mapping.clone(),
        })
        .collect()
}

/// Seeded real input tensors, one per graph input.
pub fn inputs(rng: &mut Rng, graph: &DataflowGraph) -> Vec<Vec<Value>> {
    graph
        .inputs
        .iter()
        .map(|spec| (0..spec.len()).map(|_| Value::real(rng.unit())).collect())
        .collect()
}

/// A 1-D indexed graph for sessions: node `k` has index `[k]` and one
/// or two producers among the previous [`WINDOW`] nodes. Every node is
/// indexed, so affine candidates stay resolvable under any edit.
pub fn session_graph(rng: &mut Rng, nodes: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("session", 32);
    g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
    for k in 1..nodes {
        let (expr, deps) = node_body(rng, k);
        g.add_node(expr, deps, vec![k as i64]);
    }
    g
}

/// Producers are drawn from this many preceding nodes.
pub const WINDOW: usize = 8;

fn node_body(rng: &mut Rng, id: usize) -> (CExpr, Vec<u32>) {
    let pick = |rng: &mut Rng| (id - rng.range(1, WINDOW.min(id))) as u32;
    if id >= 2 && rng.unit() < 0.5 {
        let (a, b) = (pick(rng), pick(rng));
        (CExpr::dep(0).add(CExpr::dep(1)), vec![a, b])
    } else {
        let c = Value::real(1.0 + rng.unit());
        (CExpr::dep(0).mul(CExpr::konst(c)), vec![pick(rng)])
    }
}

/// Session candidates: `stretch-w` (place `i mod w`, time `i·w`, legal on
/// any window-local graph) for `w = 1..=8`, plus `tight-8` (time `i`),
/// which the NoC hop at each wrap makes illegal.
pub fn session_candidates(rng: &mut Rng) -> Vec<MappingCandidate> {
    let mut out: Vec<MappingCandidate> = (1..=8i64)
        .map(|w| {
            MappingCandidate::new(
                format!("stretch-{w}"),
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i() % w),
                    time: IdxExpr::i() * w,
                }),
            )
        })
        .collect();
    out.push(MappingCandidate::new(
        "tight-8",
        Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 8),
            time: IdxExpr::i(),
        }),
    ));
    rng.shuffle(&mut out);
    out
}

/// Session edit stream over a graph whose node count stays inside
/// `lo..=hi`. Nodes are appended and removed at the tail only, so node
/// `k` always has domain index `[k]` and the largest index (and with it
/// every schedule's makespan) stays in the same band for the whole run.
///
/// The stream tracks only what it needs to stay valid (each node's
/// producer count and the tile size), not the graph itself.
pub struct EditStream {
    rng: Rng,
    lo: usize,
    hi: usize,
    deps: Vec<usize>,
    tile_bits: [u64; 2],
    resized: bool,
    /// Batch sizes still to hand out from the current block.
    sizes: Vec<usize>,
}

/// Batch sizes come in shuffled blocks with exactly this mix, so every
/// run sees the same proportions and the median round sits inside the
/// three-edit group rather than on a boundary between two sizes.
const BATCH_BLOCK: [usize; 5] = [1, 2, 3, 3, 4];

impl EditStream {
    pub fn new(seed: u64, graph: &DataflowGraph, machine: &MachineConfig) -> EditStream {
        let nodes = graph.len();
        EditStream {
            rng: Rng::new(seed, 0xED17),
            lo: nodes - nodes / 32,
            hi: nodes + nodes / 32,
            deps: graph.nodes.iter().map(|n| n.deps.len()).collect(),
            tile_bits: [machine.tile_bits, machine.tile_bits * 3 / 4],
            resized: false,
            sizes: Vec::new(),
        }
    }

    /// The next batch of 1–4 edits, mixing `AddNode`, `RemoveNode`,
    /// `RetargetEdge` and `ResizeTile`; each edit is valid against the
    /// graph as the batch's earlier edits leave it.
    pub fn batch(&mut self) -> Vec<GraphEdit> {
        if self.sizes.is_empty() {
            self.sizes = BATCH_BLOCK.to_vec();
            self.rng.shuffle(&mut self.sizes);
        }
        let count = self.sizes.pop().expect("refilled above");
        (0..count).map(|_| self.one()).collect()
    }

    fn one(&mut self) -> GraphEdit {
        let len = self.deps.len();
        let roll = self.rng.unit();
        if len <= self.lo || (len < self.hi && roll < 0.35) {
            let (expr, deps) = node_body(&mut self.rng, len);
            self.deps.push(deps.len());
            GraphEdit::AddNode {
                expr,
                deps,
                index: vec![len as i64],
                output: false,
            }
        } else if len >= self.hi || roll < 0.7 {
            // The tail node has no consumers: only earlier ids are deps.
            self.deps.pop();
            GraphEdit::RemoveNode {
                id: (len - 1) as u32,
            }
        } else if roll < 0.9 {
            let node = self.rng.range(WINDOW, len - 1);
            let slot = self.rng.range(0, self.deps[node] - 1) as u32;
            let new_dep = (node - self.rng.range(1, WINDOW)) as u32;
            GraphEdit::RetargetEdge {
                node: node as u32,
                slot,
                new_dep,
            }
        } else {
            self.resized = !self.resized;
            GraphEdit::ResizeTile {
                tile_bits: self.tile_bits[usize::from(self.resized)],
            }
        }
    }
}
