//! Content fingerprints for tuning-cache keys.
//!
//! A cache entry must be keyed by everything that determines the search
//! result: the function graph, the machine, the objective, the
//! candidate set itself (labels and mappings), and the refinement
//! configuration (annealing chains change the winner). All serialize
//! through the serde data model; the JSON rendering is canonical here
//! (struct fields in declaration order, maps sorted), so its bytes are
//! a stable content fingerprint. They are streamed through an FNV-1a
//! sink with `serde_json::to_writer`, never rendered into a `String`:
//! the hash equals that of the concatenated text, so keys persisted by
//! earlier releases stay valid.

use std::io;

use fm_core::dataflow::DataflowGraph;
use fm_core::machine::MachineConfig;
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_costmodel::CostModelKind;

use crate::tuner::Refinement;

/// FNV-1a 64 over a byte string. The one shared FNV in the workspace —
/// the tuning-cache fingerprints here and `fm-serve`'s wire checksums
/// all hash through this implementation.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.0
}

/// An FNV-1a 64 state that is also an [`io::Write`] sink, so a value
/// can be hashed as it is serialized instead of rendered first.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Hash `value`'s compact JSON rendering.
    fn json<T: serde::Serialize + ?Sized>(&mut self, value: &T) {
        serde_json::to_writer(&mut *self, value).expect("hashing never fails");
    }
}

impl io::Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Fingerprint a tuning problem under the default (analytic) cost
/// model. Two problems collide only if their serialized forms collide
/// under FNV-1a 64 (fine for a cache: a false hit is caught by the
/// legality re-check, a false miss only costs a cold search).
pub fn fingerprint(
    graph: &DataflowGraph,
    machine: &MachineConfig,
    fom: FigureOfMerit,
    candidates: &[MappingCandidate],
    refinement: Option<Refinement>,
) -> u64 {
    fingerprint_with_model(
        graph,
        machine,
        fom,
        candidates,
        refinement,
        CostModelKind::Analytic,
    )
}

/// Fingerprint a tuning problem under a specific cost backend. The
/// default backend hashes exactly as [`fingerprint`] always has —
/// pre-backend cache entries stay valid — while any other backend folds
/// its name in, so searches under different cost models never share a
/// cache slot.
pub fn fingerprint_with_model(
    graph: &DataflowGraph,
    machine: &MachineConfig,
    fom: FigureOfMerit,
    candidates: &[MappingCandidate],
    refinement: Option<Refinement>,
    cost_model: CostModelKind,
) -> u64 {
    // The bytes hashed are exactly those of the historical rendering:
    // each component's compact JSON, `\u{1}` between components and
    // `\u{2}` between a candidate's label and its mapping.
    let mut h = Fnv1a::new();
    h.json(graph);
    h.update(b"\x01");
    h.json(machine);
    h.update(b"\x01");
    h.json(&fom);
    h.update(b"\x01");
    h.json(&refinement);
    for c in candidates {
        h.update(b"\x01");
        h.update(c.label.as_bytes());
        h.update(b"\x02");
        h.json(&c.mapping);
    }
    if cost_model != CostModelKind::Analytic {
        h.update(b"\x01");
        h.update(cost_model.name().as_bytes());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::mapping::Mapping;

    fn tiny(name: &str) -> DataflowGraph {
        use fm_core::dataflow::CExpr;
        use fm_core::value::Value;
        let mut g = DataflowGraph::new(name, 32);
        g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        g
    }

    #[test]
    fn sensitive_to_every_component() {
        let g = tiny("a");
        let m = MachineConfig::linear(4);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        let base = fingerprint(&g, &m, FigureOfMerit::Edp, &cands, None);

        assert_ne!(
            base,
            fingerprint(&tiny("b"), &m, FigureOfMerit::Edp, &cands, None)
        );
        assert_ne!(
            base,
            fingerprint(
                &g,
                &MachineConfig::linear(8),
                FigureOfMerit::Edp,
                &cands,
                None
            )
        );
        assert_ne!(base, fingerprint(&g, &m, FigureOfMerit::Time, &cands, None));
        assert_ne!(base, fingerprint(&g, &m, FigureOfMerit::Edp, &[], None));
        let relabeled = vec![MappingCandidate::new("other", Mapping::serial(&g))];
        assert_ne!(
            base,
            fingerprint(&g, &m, FigureOfMerit::Edp, &relabeled, None)
        );
        let refined = Refinement {
            chains: 4,
            iters: 100,
            seed: 1,
        };
        assert_ne!(
            base,
            fingerprint(&g, &m, FigureOfMerit::Edp, &cands, Some(refined))
        );
    }

    #[test]
    fn analytic_model_hashes_like_the_historical_fingerprint() {
        let g = tiny("a");
        let m = MachineConfig::linear(4);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        let base = fingerprint(&g, &m, FigureOfMerit::Edp, &cands, None);
        assert_eq!(
            base,
            fingerprint_with_model(
                &g,
                &m,
                FigureOfMerit::Edp,
                &cands,
                None,
                CostModelKind::Analytic
            )
        );
        let roof = fingerprint_with_model(
            &g,
            &m,
            FigureOfMerit::Edp,
            &cands,
            None,
            CostModelKind::Roofline,
        );
        let spatial = fingerprint_with_model(
            &g,
            &m,
            FigureOfMerit::Edp,
            &cands,
            None,
            CostModelKind::Spatial,
        );
        assert_ne!(base, roof);
        assert_ne!(base, spatial);
        assert_ne!(roof, spatial);
    }

    #[test]
    fn pinned_to_golden_values() {
        let g = tiny("a");
        let m = MachineConfig::linear(4);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        let refined = Refinement {
            chains: 4,
            iters: 100,
            seed: 1,
        };
        let fp = |refinement, model| {
            fingerprint_with_model(&g, &m, FigureOfMerit::Edp, &cands, refinement, model)
        };
        // Persisted cache entries are keyed by these exact values: a
        // change here orphans every cache on disk.
        assert_eq!(fp(None, CostModelKind::Analytic), 0x0dfea0ea8296858b);
        assert_eq!(
            fp(Some(refined), CostModelKind::Analytic),
            0x4af16b1573ee2354
        );
        assert_eq!(fp(None, CostModelKind::Roofline), 0x75903058a529ddc6);
    }

    #[test]
    fn stable_across_calls() {
        let g = tiny("a");
        let m = MachineConfig::linear(4);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        assert_eq!(
            fingerprint(&g, &m, FigureOfMerit::Edp, &cands, None),
            fingerprint(&g, &m, FigureOfMerit::Edp, &cands, None)
        );
    }
}
