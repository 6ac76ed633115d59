//! The benchmark's accounting rules: percentiles that refuse thin
//! tails, the latency charged to a failed request, the correctness gate
//! on decrypted outputs, and the seeded request inputs.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile of `xs`, refused (`None`) unless at
/// least [`MIN_TAIL_SAMPLES`] samples lie beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(s[rank - 1])
}

/// The highest of the usual tail percentiles the sample supports, as
/// `(p, value)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| percentile(xs, p).map(|v| (p, v)))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The output decrypted, passed the correctness gate and arrived
    /// within the deadline.
    Verified {
        /// Server-side latency in seconds.
        latency_s: f64,
    },
    /// Refused, shed, cancelled, late or wrong.
    Failed {
        /// Typed reason, e.g. `noise_refused@Act2`.
        reason: String,
        /// Seconds from submit time until the failure was known.
        elapsed_s: f64,
    },
}

impl Outcome {
    /// The latency this request contributes to the latency metrics.
    ///
    /// A failed request is charged the workload's deadline plus the
    /// time it took to fail, so it always reads slower than any request
    /// that met the deadline (a fast refusal never looks fast), and the
    /// charge is still a measured time.
    pub fn charged_latency_s(&self, deadline_s: f64) -> f64 {
        match self {
            Outcome::Verified { latency_s } => *latency_s,
            Outcome::Failed { elapsed_s, .. } => deadline_s + elapsed_s,
        }
    }

    /// Whether the request counts as failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }
}

/// Largest absolute element-wise difference; infinite on a length
/// mismatch or a non-finite value.
pub fn max_abs_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            let e = (g - w).abs();
            if e.is_finite() {
                e
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

fn argmax(v: &[f64]) -> Option<usize> {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// The gate on a network's decrypted logits: within `tol` of the
/// plaintext forward pass everywhere, and the same predicted class.
/// Returns the max abs error on success.
pub fn check_logits(got: &[f64], want: &[f64], tol: f64) -> Result<f64, String> {
    let err = max_abs_error(got, want);
    if err > tol {
        return Err(format!("max logit error {err:.3e} exceeds {tol:.3e}"));
    }
    if argmax(got) != argmax(want) {
        return Err(format!(
            "argmax {:?} disagrees with plaintext {:?}",
            argmax(got),
            argmax(want)
        ));
    }
    Ok(err)
}

/// The gate on a decrypted matrix product: within `tol` of the
/// plaintext reference everywhere. Returns the max abs error on
/// success.
pub fn check_matrix(got: &[f64], want: &[f64], tol: f64) -> Result<f64, String> {
    let err = max_abs_error(got, want);
    if err > tol {
        return Err(format!("max entry error {err:.3e} exceeds {tol:.3e}"));
    }
    Ok(err)
}

/// SplitMix64: a small, fully specified generator, so a seed maps to
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// Derives an independent stream seed for `(seed, stream, index)`.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut g =
        SplitMix64::new(seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    g.next_u64()
}

/// The `n` plaintext input values of request `index`, uniform in
/// `[-0.5, 0.5)`. The same `(seed, index)` always gives the same
/// values.
pub fn input_values(seed: u64, index: u64, n: usize) -> Vec<f64> {
    let mut g = SplitMix64::new(derive_seed(seed, 2, index));
    (0..n).map(|_| g.uniform(-0.5, 0.5)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples has 9 beyond it: refused.
        assert_eq!(percentile(&xs, 90.0), None);
        // p75 has 24 beyond it: reported.
        assert_eq!(percentile(&xs, 75.0), Some(75.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&[1.0; 9]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_is_defined_for_any_nonempty_sample() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn failed_requests_are_charged_the_deadline() {
        let deadline = 20.0;
        let fast_refusal = Outcome::Failed {
            reason: "noise_refused@Act2".into(),
            elapsed_s: 0.001,
        };
        let slow_success = Outcome::Verified { latency_s: 19.9 };
        assert!(fast_refusal.charged_latency_s(deadline) >= deadline);
        assert!(
            fast_refusal.charged_latency_s(deadline) > slow_success.charged_latency_s(deadline)
        );
        assert_eq!(slow_success.charged_latency_s(deadline), 19.9);
        assert!(fast_refusal.is_failed() && !slow_success.is_failed());
    }

    #[test]
    fn gate_rejects_a_perturbed_output() {
        let want = [0.1, -0.4, 0.9, 0.2];
        let mut got = want.to_vec();
        assert!(check_logits(&got, &want, 0.05).is_ok());
        got[1] += 0.06;
        assert!(check_logits(&got, &want, 0.05).is_err());
        // Within tolerance but the winning class flips.
        let close = [0.1, -0.4, 0.5, 0.51];
        let flipped = [0.1, -0.4, 0.52, 0.50];
        assert!(check_logits(&flipped, &close, 0.05).is_err());
        assert!(check_logits(&[f64::NAN, 0.0, 0.9, 0.2], &want, 0.05).is_err());
        assert!(check_logits(&want[..3], &want, 0.05).is_err());

        let m = [1.0, 2.0, 3.0, 4.0];
        assert!(check_matrix(&m, &m, 1e-3).is_ok());
        let mut bad = m.to_vec();
        bad[3] += 2e-3;
        assert!(check_matrix(&bad, &m, 1e-3).is_err());
    }

    #[test]
    fn request_inputs_are_seeded_and_reproducible() {
        let a = input_values(7, 0, 784);
        assert_eq!(a, input_values(7, 0, 784));
        assert_ne!(a, input_values(8, 0, 784));
        assert_ne!(a, input_values(7, 1, 784));
        assert!(a.iter().all(|v| (-0.5..0.5).contains(v)));
        // A longer draw extends a shorter one, so a matmul's A and B
        // come from one stream.
        assert_eq!(input_values(7, 0, 2048)[..784], a[..]);
        // The generator is fully specified: these values must not move
        // between toolchains.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }
}
