//! Zero-allocation steady state: after warm-up, running frames through a
//! packed model with [`forward_into`] and a persistent [`Workspace`] — or
//! batches of frames with [`forward_batch_into`] and persistent per-frame
//! workspaces — must perform **zero** heap allocations.
//!
//! The test wraps the system allocator in a counting shim (this
//! integration test is its own binary and process, so the counter sees
//! only this test's traffic) and asserts the allocation count does not
//! move across post-warm-up frames. The counter is process-wide, so both
//! cases run inside the one `#[test]`: a second test would run on another
//! thread at the same time and count into the first one's window. It runs
//! at the default serial setting (threads = 1), where the in-line chunk
//! loop touches no pool state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use upaq_nn::exec::{forward_batch_into, forward_into, Workspace};
use upaq_nn::{Layer, Model};
use upaq_tensor::{Shape, Tensor};

/// Counts every allocation-path call (alloc, alloc_zeroed, realloc) while
/// delegating the actual work to [`System`]. Deallocations are not
/// counted: releasing memory is allowed in steady state, acquiring it is
/// not.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A compact model that routes one input through every streaming layer
/// kind the detectors use: conv, batch norm, ReLU, max-pool, upsample,
/// residual add, and channel concat.
fn all_kinds_model() -> (Model, usize) {
    let mut m = Model::new("alloc-freedom");
    let x = m.add_input("x", 4);
    let c1 = m
        .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 11), &[x])
        .unwrap();
    let bn = m.add_layer(Layer::batch_norm("bn", 8), &[c1]).unwrap();
    let r = m.add_layer(Layer::relu("r"), &[bn]).unwrap();
    let mp = m.add_layer(Layer::max_pool("mp", 2, 2), &[r]).unwrap();
    let up = m.add_layer(Layer::upsample("up", 2), &[mp]).unwrap();
    let c2 = m
        .add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 12), &[r])
        .unwrap();
    let add = m.add_layer(Layer::add("add"), &[up, c2]).unwrap();
    let cat = m.add_layer(Layer::concat("cat"), &[add, r]).unwrap();
    let head = m
        .add_layer(Layer::conv2d("head", 16, 4, 1, 1, 0, 13), &[cat])
        .unwrap();
    (m, head)
}

#[test]
fn steady_state_forward_performs_zero_allocations() {
    let (mut model, head) = all_kinds_model();
    model.pack_weights();

    let mut inputs = HashMap::new();
    inputs.insert(
        "x".to_string(),
        Tensor::from_vec(
            Shape::nchw(1, 4, 16, 16),
            (0..4 * 16 * 16).map(|i| (i as f32).sin()).collect(),
        )
        .unwrap(),
    );
    let mut ws = Workspace::new();

    // Warm-up: the first frames build the execution plan and size every
    // activation buffer; a second pass proves the buffers are reused.
    for _ in 0..3 {
        forward_into(&model, &inputs, &mut ws).unwrap();
    }
    let expected_len = ws.activations()[&head].len();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut checksum = 0.0f64;
    for frame in 0..20 {
        // New sensor data arrives by mutating the input buffer in place —
        // exactly how the streaming runtime feeds a persistent workspace.
        let data = inputs.get_mut("x").unwrap().as_mut_slice();
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((frame * 31 + i) as f32).sin();
        }
        forward_into(&model, &inputs, &mut ws).unwrap();
        let out = &ws.activations()[&head];
        assert_eq!(out.len(), expected_len);
        checksum += f64::from(out.as_slice()[frame]);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state frames allocated {} times; the packed-weight + \
         workspace path must not touch the heap after warm-up",
        after - before
    );

    // The batched executor: four frames per call into four persistent
    // workspaces. Warm-up sizes every workspace's buffers.
    let mut batch = vec![inputs.clone(); 4];
    let mut wss: Vec<Workspace> = Vec::new();
    for _ in 0..3 {
        forward_batch_into(&model, &batch, &mut wss).unwrap();
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut checksum = 0.0f64;
    for step in 0..10 {
        for (f, frame) in batch.iter_mut().enumerate() {
            let data = frame.get_mut("x").unwrap().as_mut_slice();
            for (i, v) in data.iter_mut().enumerate() {
                *v = ((step * 131 + f * 17 + i) as f32).cos();
            }
        }
        forward_batch_into(&model, &batch, &mut wss).unwrap();
        for ws in &wss {
            let out = &ws.activations()[&head];
            assert_eq!(out.len(), expected_len);
            checksum += f64::from(out.as_slice()[step]);
        }
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state batches allocated {} times; the batched executor \
         must not touch the heap after warm-up",
        after - before
    );
}
