//! Pool panic propagation: a chunk panic must cross the completion
//! barrier as a typed [`ChunkPanic`] payload, and the persistent pool
//! must survive to serve later kernels.
//!
//! Integration test (own process) because it mutates the process-wide
//! thread-count switch and deliberately panics inside the shared pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use upaq_tensor::ops::{parallel_for_chunks, ChunkPanic, TensorParallel};

#[test]
fn chunk_panic_resumes_typed_and_pool_survives() {
    TensorParallel::set_threads(4);

    // One chunk of eight panics; the rest complete. The barrier must
    // still release the submitter, and the payload it rethrows must be
    // the typed ChunkPanic naming the failing chunk and original message.
    let ran = AtomicUsize::new(0);
    let err = catch_unwind(AssertUnwindSafe(|| {
        parallel_for_chunks(8, |i| {
            if i == 5 {
                panic!("injected chunk fault");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }))
    .expect_err("chunk panic must propagate to the submitter");
    let chunk_panic = err
        .downcast_ref::<ChunkPanic>()
        .expect("payload must downcast to ChunkPanic");
    assert_eq!(chunk_panic.chunk, 5);
    assert_eq!(chunk_panic.message, "injected chunk fault");
    assert!(
        chunk_panic.to_string().contains("chunk 5"),
        "display names the chunk: {chunk_panic}"
    );
    // Every non-panicking chunk still ran exactly once.
    assert_eq!(ran.load(Ordering::Relaxed), 7);

    // The workers caught the unwind and went back to the queue: the same
    // pool must serve a clean kernel afterwards, touching every chunk.
    let mut out = vec![0u32; 16];
    let base = out.as_mut_ptr() as usize;
    parallel_for_chunks(16, |i| {
        // SAFETY: disjoint per-chunk writes; buffer outlives the call.
        unsafe { *(base as *mut u32).add(i) = i as u32 * 3 }
    });
    assert_eq!(out, (0..16u32).map(|i| i * 3).collect::<Vec<_>>());

    // String payloads survive the stringify round-trip too.
    let err = catch_unwind(AssertUnwindSafe(|| {
        parallel_for_chunks(4, |i| {
            if i == 0 {
                panic!("frame {} poisoned", 7);
            }
        });
    }))
    .expect_err("chunk panic must propagate");
    let chunk_panic = err
        .downcast_ref::<ChunkPanic>()
        .expect("typed payload on repeat use");
    assert_eq!(chunk_panic.chunk, 0);
    assert_eq!(chunk_panic.message, "frame 7 poisoned");

    TensorParallel::set_threads(1);
}
