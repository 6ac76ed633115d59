//! Workload definitions and the server's set-up: the design flow
//! (lower, noise admission, DSE, simulate) for network workloads, then
//! the CKKS context and keys. Also the client side of a request:
//! generating seeded inputs, encrypting them into v2 frames, and
//! checking the decrypted result.

use crate::stats::{check_logits, check_matrix, derive_seed, input_values};
use fxhenn::ckks::wire::{decode_ciphertext_v2, encode_ciphertext_v2};
use fxhenn::ckks::{
    decode_block, encode_block, matmul_block_dim, matmul_reference, required_rotations,
    AlignedBytes, CkksContext, CkksParams, Decryptor, Encryptor, GaloisKeys, KeyGenerator,
    PublicKey, RelinKey, SecretKey,
};
use fxhenn::dse::explore::try_explore_default;
use fxhenn::nn::executor::try_encrypt_input;
use fxhenn::nn::{
    analyze_noise, fxhenn_mnist, toy_cryptonets_like, try_lower_network, CtLayout, HeCnnProgram,
    Network, NoiseTrajectory, Tensor, DEFAULT_PLAN_FLOOR_BITS,
};
use fxhenn::sim::{try_simulate, SimReport};
use fxhenn::{push_frame, FpgaDevice, FrameCursor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Max abs logit error a network result may carry (the paper-scale
/// functional test's tolerance).
pub const LOGIT_TOLERANCE: f64 = 0.05;

/// Max abs entry error a `d × d` product of entries in `[-0.5, 0.5)`
/// may carry at `N = 4096`, 30-bit primes.
pub const MATMUL_TOLERANCE: f64 = 1e-2;

/// Seed of the network weights: the model is fixed, only its inputs
/// vary with the workload seed.
const MODEL_SEED: u64 = 1;

/// What one request computes.
#[derive(Debug, Clone)]
pub enum Job {
    /// An encrypted image through a network.
    Network(Network),
    /// A blocked `d × d` ct×ct matrix product.
    Matmul {
        /// Block dimension.
        d: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// What each request computes.
    pub job: Job,
    /// CKKS parameters.
    pub params: CkksParams,
    /// Device the design flow targets (network workloads).
    pub device: Option<FpgaDevice>,
    /// Fixed per-request deadline: the serve budget, the latency limit,
    /// and the base of the latency charged to a failed request.
    pub deadline: Duration,
    /// Serving processes an end-to-end run spreads its time over. Each
    /// process calibrates the `par` dispatcher once at start-up, and on a
    /// shared host that calibration lands on "spawn for everything" in
    /// some processes and "never spawn" in others, so a run samples
    /// several.
    pub processes: usize,
}

impl Workload {
    /// The workload registered under `name`.
    pub fn named(name: &str) -> Option<Self> {
        let w = match name {
            "mnist_paper" => Workload {
                name: "mnist_paper",
                job: Job::Network(fxhenn_mnist(MODEL_SEED)),
                params: CkksParams::fxhenn_mnist(),
                device: Some(FpgaDevice::acu9eg()),
                // About twice the time a request takes to reach its
                // refusal at Act2 (1.8-4.2 s on a 2-vCPU host), so the
                // measured part is a third of the charged latency.
                deadline: Duration::from_secs(6),
                processes: 8,
            },
            "cryptonets_closed" => Workload {
                name: "cryptonets_closed",
                job: Job::Network(toy_cryptonets_like(MODEL_SEED)),
                params: CkksParams::fxhenn_mnist(),
                device: Some(FpgaDevice::acu9eg()),
                deadline: Duration::from_secs(5),
                processes: 8,
            },
            "ct_matmul" => {
                let params = CkksParams::new(4096, 5, 30, 45).ok()?;
                Workload {
                    name: "ct_matmul",
                    job: Job::Matmul {
                        d: matmul_block_dim(params.degree()),
                    },
                    params,
                    device: None,
                    deadline: Duration::from_secs(10),
                    // "Spawn for everything" makes a call about 1.6x
                    // slower than "never spawn" at N = 4096 (1.3 s
                    // against 0.8 s on a 2-vCPU host), and a process
                    // keeps its speed for its life, so this workload
                    // samples three times as many processes, each
                    // serving about one request.
                    processes: 24,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Every registered workload name.
    pub const NAMES: [&'static str; 3] = ["mnist_paper", "cryptonets_closed", "ct_matmul"];

    /// Human-readable name of what runs.
    pub fn model_name(&self) -> String {
        match &self.job {
            Job::Network(net) => net.name().to_string(),
            Job::Matmul { d } => format!("ct_matmul d={d}"),
        }
    }
}

/// The design flow's products for a network workload.
#[derive(Debug, Clone)]
pub struct Design {
    /// The lowered program.
    pub program: HeCnnProgram,
    /// The admitted plan's noise trajectory.
    pub noise: NoiseTrajectory,
    /// Design points the DSE enumerated.
    pub points: usize,
    /// The simulated optimum.
    pub sim: SimReport,
}

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Lowering the network.
    pub lower_s: f64,
    /// Plan-time noise admission.
    pub noise_plan_s: f64,
    /// Design space exploration.
    pub explore_s: f64,
    /// Simulating the chosen design.
    pub simulate_s: f64,
    /// CKKS context and key generation.
    pub keygen_s: f64,
    /// Start to ready-to-serve (filled in by the caller once the
    /// `BatchDriver` exists).
    pub total_s: f64,
}

/// The server's state after set-up, plus the client's secret key.
pub struct Rig {
    /// The workload.
    pub workload: Workload,
    /// Design flow output (network workloads).
    pub design: Option<Design>,
    /// CKKS context.
    pub ctx: CkksContext,
    /// Client public key.
    pub pk: PublicKey,
    /// Client secret key (never used by the server).
    pub sk: SecretKey,
    /// Relinearization key.
    pub rk: RelinKey,
    /// Rotation keys.
    pub gks: GaloisKeys,
    /// Rotation steps the keys cover.
    pub rotations: Vec<usize>,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

impl Rig {
    /// Runs the set-up for `workload`, timing each phase.
    ///
    /// # Errors
    ///
    /// The typed error of the first phase that fails.
    pub fn build(workload: &Workload, seed: u64) -> Result<(Self, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let params = workload.params.clone();
        let design = match (&workload.job, &workload.device) {
            (Job::Network(net), Some(device)) => {
                let program = timed(&mut times.lower_s, || {
                    try_lower_network(net, params.degree(), params.levels())
                })
                .map_err(|e| format!("lower: {e}"))?;
                let noise = timed(&mut times.noise_plan_s, || {
                    analyze_noise(&program, net, &params, DEFAULT_PLAN_FLOOR_BITS)
                })
                .map_err(|e| format!("noise-admission: {e}"))?;
                let dse = timed(&mut times.explore_s, || {
                    try_explore_default(&program, device, params.prime_bits())
                })
                .map_err(|e| format!("dse: {e}"))?;
                let best = dse.best.ok_or("dse: no feasible design")?;
                let sim = timed(&mut times.simulate_s, || {
                    try_simulate(&program, &best.point, device, params.prime_bits())
                })
                .map_err(|e| format!("sim: {e}"))?;
                Some(Design {
                    program,
                    noise,
                    points: dse.points_enumerated,
                    sim,
                })
            }
            _ => None,
        };
        let rotations = match (&workload.job, &design) {
            (Job::Network(_), Some(d)) => d.program.required_rotations(),
            (Job::Matmul { d }, _) => required_rotations(*d, params.slot_count()),
            (Job::Network(_), None) => return Err("network workload without a device".into()),
        };
        let t = Instant::now();
        let ctx = CkksContext::new(params);
        let mut kg = KeyGenerator::new(&ctx, StdRng::seed_from_u64(derive_seed(seed, 1, 0)));
        let pk = kg.public_key();
        let sk = kg.secret_key();
        let rk = kg.relin_key();
        let gks = kg.galois_keys(&rotations);
        drop(kg);
        times.keygen_s = t.elapsed().as_secs_f64();
        Ok((
            Rig {
                workload: workload.clone(),
                design,
                ctx,
                pk,
                sk,
                rk,
                gks,
                rotations,
            },
            times,
        ))
    }

    /// Slots per ciphertext.
    pub fn slots(&self) -> usize {
        self.ctx.degree() / 2
    }
}

/// The plaintext answer a request must decrypt to.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Plaintext network logits.
    Logits(Vec<f64>),
    /// Plaintext matrix product.
    Product(Vec<f64>),
}

/// Client side of request `index`, off the clock: generates its input
/// from the workload seed (an image, or two `d × d` matrices, with
/// entries in `[-0.5, 0.5)`), encrypts it into length-prefixed v2 frames
/// in a word-aligned buffer, and returns them with the plaintext answer.
/// For a network the first frame lists the ciphertext count of each
/// input group.
///
/// # Errors
///
/// Input packing errors.
pub fn make_request(
    rig: &Rig,
    seed: u64,
    index: u64,
) -> Result<(Rc<AlignedBytes>, Expected), String> {
    let mut enc = Encryptor::new(
        &rig.ctx,
        rig.pk.clone(),
        StdRng::seed_from_u64(derive_seed(seed, 3, index)),
    );
    let mut bytes = AlignedBytes::new();
    let expected = match &rig.workload.job {
        Job::Network(net) => {
            let shape = net.input_shape().to_vec();
            let image =
                Tensor::from_data(&shape, input_values(seed, index, shape.iter().product()));
            let packed = try_encrypt_input(net, &image, &mut enc, rig.slots())
                .map_err(|e| format!("encrypt: {e}"))?;
            let mut header = AlignedBytes::new();
            for g in &packed.groups {
                header.push_word(g.len() as u64);
            }
            push_frame(&mut bytes, header.as_bytes());
            for ct in packed.groups.iter().flatten() {
                push_frame(&mut bytes, encode_ciphertext_v2(ct).as_bytes());
            }
            Expected::Logits(net.forward(&image).into_data())
        }
        Job::Matmul { d } => {
            let mut a = input_values(seed, index, 2 * d * d);
            let b = a.split_off(d * d);
            for m in [&a, &b] {
                let ct = enc.encrypt(&encode_block(m, *d, rig.slots()));
                push_frame(&mut bytes, encode_ciphertext_v2(&ct).as_bytes());
            }
            Expected::Product(matmul_reference(&a, &b, *d))
        }
    };
    Ok((Rc::new(bytes), expected))
}

/// Decrypts a response's frames (client side, off the clock) and runs
/// the correctness gate. Returns the max abs error on success.
///
/// # Errors
///
/// A malformed response or a result outside the gate.
pub fn verify_response(
    rig: &Rig,
    frames: &AlignedBytes,
    layout: Option<&CtLayout>,
    expected: &Expected,
) -> Result<f64, String> {
    let dec = Decryptor::new(&rig.ctx, rig.sk.clone());
    let mut slots = Vec::new();
    for frame in FrameCursor::new(frames.as_bytes()) {
        let frame = frame.map_err(|e| format!("response frame: {e}"))?;
        let view = decode_ciphertext_v2(frame).map_err(|e| format!("response decode: {e}"))?;
        slots.push(dec.decrypt(&view.to_owned_ciphertext()));
    }
    match (expected, &rig.workload.job) {
        (Expected::Logits(want), Job::Network(_)) => {
            let layout = layout.ok_or("response without a layout")?;
            check_logits(&layout.gather(&slots), want, LOGIT_TOLERANCE)
        }
        (Expected::Product(want), Job::Matmul { d }) => {
            let first = slots.first().ok_or("empty response")?;
            check_matrix(&decode_block(first, *d), want, MATMUL_TOLERANCE)
        }
        _ => Err("response does not match the workload".into()),
    }
}
