//! The trained weights of the end-to-end benchmark's model
//! (`bench_e2e/src/workloads.rs::train_bench_model`), pinned as FNV-1a 64
//! over the little-endian `to_bits` of every parameter, in store order.
//! Any change to training, its kernels or the model's dispatch that moves
//! one weight by one bit moves the hash. Training takes about a second
//! optimised and minutes in a debug build: release only (`scripts/ci.sh`).

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the catalog, the training workload, the split and the model.
const MODEL_SEED: u64 = 7;

/// `bench_e2e`'s base profile at full scale: `sdss()` cut down so the
/// model trains in about two seconds.
fn bench_profile() -> WorkloadProfile {
    let mut p = WorkloadProfile::sdss();
    p.name = "bench_e2e".into();
    p.sessions = 100;
    p.tables_per_dataset = (24, 24);
    p.columns_per_table = (8, 16);
    p.function_pool = 12;
    p.literal_pool = 40;
    p
}

fn fnv1a_64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the benchmark model: minutes unoptimised; run with --release"
)]
fn bench_model_trains_to_the_pinned_weights() {
    let (workload, _) = generate(&bench_profile(), MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let split = Split::paper(workload.pairs(), &mut rng);
    let mut cfg = RecommenderConfig::new(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = 2;
    cfg.train.patience = 0;
    cfg.max_decode_len = 32;
    let (model, _) = Recommender::try_train(&split, &workload, cfg).expect("the model trains");

    let mut tensors = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (_, value) in model.params().named_tensors() {
        tensors += 1;
        for v in value.data() {
            hash = fnv1a_64(hash, &v.to_bits().to_le_bytes());
        }
    }
    assert_eq!(tensors, 88, "trained tensors");
    assert_eq!(
        format!("{hash:016x}"),
        "354dcd678cffd675",
        "trained weights"
    );
}
