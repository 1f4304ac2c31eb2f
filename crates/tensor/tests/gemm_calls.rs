//! Every f32 product is one register-tile call, counted once.
//!
//! `tensor.gemm.naive` in the observability registry (DUMP family
//! `qrec_tensor_gemm_naive`) and `kernel::counters().serial` must each
//! move by exactly one per `gemm`, `gemm_into`, `gemm_nt` and `gemm_tn`
//! call, at a decode shape and at 512³ alike: no size class takes another
//! kernel or another counter. This file is its own test binary with a
//! single test, so no other test's products move the counter while it
//! reads it.

use qrec_tensor::kernel;

fn fill(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i + salt) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
        .collect()
}

fn registry() -> u64 {
    qrec_obs::global()
        .snapshot()
        .counter("tensor.gemm.naive")
        .unwrap_or(0)
}

#[test]
fn every_product_moves_the_naive_counter_once() {
    for (n, k, m) in [(5, 48, 48), (512, 512, 512)] {
        let (a, b) = (fill(n * k, 1), fill(k * m, 2));
        let mut out = vec![0.0f32; n * m];
        let products: [(&str, &mut dyn FnMut()); 4] = [
            ("gemm", &mut || drop(kernel::gemm(&a, &b, n, k, m))),
            ("gemm_into", &mut || {
                kernel::gemm_into(&a, &b, n, k, m, &mut out)
            }),
            ("gemm_nt", &mut || drop(kernel::gemm_nt(&a, &b, n, k, m))),
            ("gemm_tn", &mut || drop(kernel::gemm_tn(&a, &b, n, k, m))),
        ];
        for (name, product) in products {
            let (named, serial) = (registry(), kernel::counters().serial);
            product();
            assert_eq!(registry(), named + 1, "{name} at {n}x{k}x{m}");
            assert_eq!(
                kernel::counters().serial,
                serial + 1,
                "{name} at {n}x{k}x{m}"
            );
        }
    }
}
