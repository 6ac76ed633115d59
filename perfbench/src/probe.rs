//! Direct timings of single HE operations and one NTT pass on fresh
//! ciphertexts at the workload's `(N, L)`, by public calls into the
//! `ckks` and `math` crates.

use crate::rig::{Job, Rig};
use crate::stats::{derive_seed, median, SplitMix64};
use fxhenn::ckks::{ct_matmul, encode_block, Encryptor, Evaluator, HeOpKind};
use fxhenn::math::NttTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per operation; the median is reported.
const REPS: usize = 9;

fn median_time(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Median seconds per call of each probed operation, keyed by metric
/// name.
///
/// # Errors
///
/// The first evaluator error.
pub fn op_timings(rig: &Rig, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let slots = rig.slots();
    let mut g = SplitMix64::new(derive_seed(seed, 4, 0));
    let mut vals = || {
        (0..slots)
            .map(|_| g.uniform(-0.5, 0.5))
            .collect::<Vec<f64>>()
    };
    let (va, vb) = (vals(), vals());
    let mut enc = Encryptor::new(
        &rig.ctx,
        rig.pk.clone(),
        StdRng::seed_from_u64(derive_seed(seed, 4, 1)),
    );
    let a = enc.encrypt(&va);
    let b = enc.encrypt(&vb);
    let mut ev = Evaluator::new(&rig.ctx);
    let e = |e: fxhenn::ckks::EvalError| e.to_string();
    let step = *rig
        .rotations
        .first()
        .ok_or("workload has no rotation keys")?;

    // Warm the evaluator's buffer pool and caches once before timing.
    let prod = ev.mul(&a, &b).map_err(e)?;
    let relin = ev.relinearize(&prod, &rig.rk).map_err(e)?;
    let pt = ev.encode_for_mul(&va, a.level()).map_err(e)?;
    black_box(ev.rotate(&a, step, &rig.gks).map_err(e)?);

    let mut out = vec![
        (
            "ckks.op.rotate_s",
            median_time(|| drop(black_box(ev.rotate(&a, step, &rig.gks)))),
        ),
        (
            "ckks.op.mul_s",
            median_time(|| drop(black_box(ev.mul(&a, &b)))),
        ),
        (
            "ckks.op.relinearize_s",
            median_time(|| drop(black_box(ev.relinearize(&prod, &rig.rk)))),
        ),
        (
            "ckks.op.rescale_s",
            median_time(|| drop(black_box(ev.rescale(&relin)))),
        ),
        (
            "ckks.op.mul_plain_s",
            median_time(|| drop(black_box(ev.mul_plain(&a, &pt)))),
        ),
        (
            "ckks.op.add_s",
            median_time(|| drop(black_box(ev.add(&a, &b)))),
        ),
    ];

    let q = *rig
        .ctx
        .coeff_moduli()
        .first()
        .ok_or("context has no primes")?;
    let table = NttTable::try_new(rig.ctx.degree(), q).map_err(|e| e.to_string())?;
    let mut g = SplitMix64::new(derive_seed(seed, 4, 2));
    let coeffs: Vec<u64> = (0..rig.ctx.degree()).map(|_| g.next_u64() % q).collect();
    let mut buf = coeffs.clone();
    out.push((
        "math.ntt_forward_s",
        median_time(|| {
            buf.copy_from_slice(&coeffs);
            table.forward(black_box(&mut buf));
        }),
    ));
    Ok(out)
}

/// HE-op and key-switch counts of one matmul request. The op trace
/// books the block as one `CtMatmul` macro record, so the constituent
/// primitives are counted from the evaluator's always-on global op
/// counters around one call. Networks take their counts from the
/// lowered program instead.
///
/// # Errors
///
/// The evaluator error of the counted call.
pub fn matmul_counts(rig: &Rig, seed: u64) -> Result<Option<(usize, usize)>, String> {
    let Job::Matmul { d } = rig.workload.job else {
        return Ok(None);
    };
    let mut g = SplitMix64::new(derive_seed(seed, 4, 3));
    let m: Vec<f64> = (0..d * d).map(|_| g.uniform(-0.5, 0.5)).collect();
    let mut enc = Encryptor::new(
        &rig.ctx,
        rig.pk.clone(),
        StdRng::seed_from_u64(derive_seed(seed, 4, 4)),
    );
    let ct = enc.encrypt(&encode_block(&m, d, rig.slots()));
    let mut ev = Evaluator::new(&rig.ctx);
    let counters: Vec<(HeOpKind, u64)> =
        HeOpKind::ALL.iter().map(|&k| (k, op_counter(k))).collect();
    ct_matmul(&mut ev, &ct, &ct, &rig.rk, &rig.gks, d).map_err(|e| e.to_string())?;
    let (mut hops, mut key_switches) = (0, 0);
    for (kind, before) in counters {
        if matches!(kind, HeOpKind::CtMatmul | HeOpKind::Sign) {
            continue;
        }
        let n = (op_counter(kind) - before) as usize;
        hops += n;
        if kind.is_key_switch() {
            key_switches += n;
        }
    }
    Ok(Some((hops, key_switches)))
}

/// The global `fxhenn_he_ops_total` counter of `kind`.
fn op_counter(kind: HeOpKind) -> u64 {
    fxhenn::obs::global()
        .counter(&format!("fxhenn_he_ops_total{{op=\"{kind}\"}}"))
        .value()
}
