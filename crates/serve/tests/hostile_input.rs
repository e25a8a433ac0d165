//! Hostile input inside real requests. The decoders read typed values
//! straight from the frame, so the nesting bound and the count bound
//! must hold through the typed recursion: a `Tune` whose expression
//! nests past `BINARY_MAX_DEPTH` is malformed, the same request just
//! under the bound decodes on a thread with the default 2 MiB stack
//! (in either encoding), and a lying element count is refused without
//! an allocation larger than the frame.
//!
//! This binary installs an allocator that records the largest single
//! allocation made on a thread while tracking is switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;
use fm_serve::protocol::{
    decode_request, decode_request_any, encode_request, encode_request_binary, Request,
    TuneRequest, WireError, BINARY_MAX_DEPTH,
};
use serde::{Json, Serialize};

struct LargestAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Run `f`, returning its result and the largest single allocation it
/// made on this thread.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|on| on.set(true));
    let out = f();
    TRACKING.with(|on| on.set(false));
    (out, LARGEST.with(Cell::get))
}

/// A small `Tune` whose first node's expression is `nesting` negations
/// deep.
fn nested_tune(nesting: usize) -> Request {
    let mut expr = CExpr::konst(Value::real(1.5));
    for _ in 0..nesting {
        expr = CExpr::Neg(Box::new(expr));
    }
    let mut graph = DataflowGraph::new("deep", 32);
    graph.add_node(expr, vec![], vec![0]);
    graph.add_node(CExpr::konst(Value::real(2.0)), vec![], vec![1]);
    graph.add_node(CExpr::konst(Value::real(3.0)), vec![], vec![2]);
    Request::Tune(TuneRequest {
        graph,
        machine: MachineConfig::linear(2),
        fom: FigureOfMerit::Time,
        candidates: vec![],
        deadline_ms: None,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    })
}

/// Depth of the deepest value in `v` (the root is 0).
fn depth(v: &Json) -> usize {
    let children: Box<dyn Iterator<Item = &Json>> = match v {
        Json::Arr(items) => Box::new(items.iter()),
        Json::Obj(fields) => Box::new(fields.iter().map(|(_, v)| v)),
        _ => return 0,
    };
    children.map(|c| depth(c) + 1).max().unwrap_or(0)
}

/// Decode on a fresh thread with the default 2 MiB stack, as the
/// server's connection readers do.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("decoding overflowed or panicked")
}

#[test]
fn typed_nesting_is_bounded_in_both_encodings() {
    // Each negation nests the expression one level deeper, so this
    // many put the deepest value exactly at the bound.
    let under = BINARY_MAX_DEPTH - depth(&nested_tune(0).to_json());
    assert_eq!(depth(&nested_tune(under).to_json()), BINARY_MAX_DEPTH);

    let req = nested_tune(under);
    let binary = encode_request_binary(5, &req);
    let json = encode_request(&req);
    let (back_binary, back_json) = on_default_stack(move || {
        (
            decode_request_any(&binary).map(|(_, r, _)| r),
            decode_request(&json),
        )
    });
    assert_eq!(back_binary.expect("binary just under the bound"), req);
    assert_eq!(back_json.expect("JSON just under the bound"), req);

    let over = nested_tune(under + 1);
    let binary = encode_request_binary(5, &over);
    let json = encode_request(&over);
    let (binary, json) = on_default_stack(move || {
        (
            decode_request_any(&binary).map(|(_, r, _)| r),
            decode_request(&json),
        )
    });
    assert!(matches!(binary, Err(WireError::Malformed(_))), "{binary:?}");
    assert!(matches!(json, Err(WireError::Malformed(_))), "{json:?}");
}

#[test]
fn lying_node_count_is_refused_within_the_frame() {
    let frame = encode_request_binary(9, &nested_tune(2));
    // The graph's `nodes` key, the array tag and its one-byte count 3.
    let key = [&[5u8][..], b"nodes", &[0x07, 0x03]].concat();
    let at = frame
        .windows(key.len())
        .position(|w| w == key)
        .expect("the frame carries the nodes array")
        + key.len()
        - 1;
    let mut lying = frame[..at].to_vec();
    lying.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // u32::MAX
    lying.extend_from_slice(&frame[at + 1..]);

    let (result, largest) = largest_alloc(|| decode_request_any(&lying).map(|(_, r, _)| r));
    assert!(matches!(result, Err(WireError::Malformed(_))), "{result:?}");
    assert!(
        largest <= lying.len(),
        "largest allocation {largest} bytes for a {}-byte frame",
        lying.len()
    );
    // The untouched frame still decodes.
    assert_eq!(
        decode_request_any(&frame).unwrap().1,
        nested_tune(2),
        "the unaltered frame"
    );
}
