//! No product starts a thread: every GEMM runs on its caller.
//!
//! The process's thread count (`/proc/self/task`) must not move across
//! one product of each form — `A·B` at a decode shape (5×48×130), a
//! serving shape (20×48×96, the encoder FFN) and 512³, and the two
//! backward-pass forms at 70×96×110. This file is its own test binary
//! with a single test, so no other test's threads come and go while it
//! counts.

#![cfg(target_os = "linux")]

use qrec_tensor::kernel;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

fn fill(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i + salt) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
        .collect()
}

#[test]
fn products_run_on_the_calling_thread() {
    let before = threads();
    for (n, k, m) in [(5, 48, 130), (20, 48, 96), (512, 512, 512)] {
        let out = kernel::gemm(&fill(n * k, 1), &fill(k * m, 2), n, k, m);
        assert_eq!(out.len(), n * m);
        assert_eq!(threads(), before, "kernel::gemm at {n}x{k}x{m}");
    }
    let (n, k, m) = (70, 96, 110);
    let _ = kernel::gemm_nt(&fill(n * k, 3), &fill(m * k, 4), n, k, m);
    assert_eq!(threads(), before, "kernel::gemm_nt at {n}x{k}x{m}");
    let _ = kernel::gemm_tn(&fill(k * n, 5), &fill(k * m, 6), n, k, m);
    assert_eq!(threads(), before, "kernel::gemm_tn at {n}x{k}x{m}");
}
