//! Weight initialisers.

use crate::tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The standard choice for linear
/// layers feeding saturating or softmax nonlinearities.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, -a, a, rng)
}

/// Uniform initialisation on `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Gaussian initialisation `N(0, std²)` via Box–Muller.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    while data.len() < rows * cols {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < rows * cols {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = xavier_uniform(10, 20, &mut rng);
        let a = (6.0f32 / 30.0).sqrt();
        assert!(t.data().iter().all(|&x| x > -a && x < a));
    }

    #[test]
    fn normal_moments_roughly_right() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = normal(100, 100, 0.5, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(3, 3, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(3, 3, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn odd_element_count_normal() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = normal(3, 3, 1.0, &mut rng);
        assert_eq!(t.len(), 9);
        assert!(t.data().iter().all(|x| x.is_finite()));
    }
}
