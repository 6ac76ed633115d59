//! The server side of a request, run by `BatchDriver`: zero-copy
//! ingest of the request frames with range checks, homomorphic
//! evaluation under the request's budget, and encoding of the output
//! frames. Client and service share an [`Exchange`]: the client drops
//! request frames in the inbox before submitting, and the service
//! leaves a [`Served`] record (timings, response or typed refusal) in
//! the outbox.

use crate::rig::{Job, Rig};
use fxhenn::ckks::{
    encode_ciphertext_v2, matmul::ct_matmul, AlignedBytes, Ciphertext, EvalError, Evaluator,
    OpSpanLog,
};
use fxhenn::math::budget::{Budget, BudgetStop};
use fxhenn::math::par::{self, Parallelism};
use fxhenn::nn::executor::{EncryptedInput, HeCnnExecutor};
use fxhenn::nn::{CtLayout, ExecError, LayerSpanLog, Network};
use fxhenn::{
    ingest_ciphertext, push_frame, AttemptError, FrameCursor, InferenceRequest, InferenceService,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

/// A successful evaluation's output.
#[derive(Debug)]
pub struct Response {
    /// Output ciphertexts as v2 frames.
    pub frames: AlignedBytes,
    /// Slot layout of the logits (network workloads).
    pub layout: Option<CtLayout>,
    /// Least remaining noise budget over the output ciphertexts.
    pub min_budget_bits: f64,
}

/// What the service did with one attempt.
#[derive(Debug)]
pub struct Served {
    /// When the service picked the request up.
    pub started: Instant,
    /// When the output frames were handed back (or the attempt failed).
    pub finished: Instant,
    /// Frame walk, decode, range check and materialization, seconds.
    pub ingest_s: f64,
    /// The evaluator or executor call, seconds.
    pub eval_s: f64,
    /// Output encoding, seconds.
    pub encode_s: f64,
    /// The response, or the typed reason the evaluation was refused.
    pub result: Result<Response, Refusal>,
    /// Per-layer spans (traced network requests).
    pub layer_spans: Option<LayerSpanLog>,
    /// Per-op spans (traced requests).
    pub op_spans: Option<OpSpanLog>,
}

/// Why the service refused a request.
#[derive(Debug, Clone)]
pub enum Refusal {
    /// The runtime noise guard stopped the evaluation.
    Noise {
        /// Layer of the refusing op (`ct_matmul` for the matmul).
        layer: String,
        /// Predicted budget at the refusing op.
        budget_bits: f64,
    },
    /// The request's budget expired.
    Cancelled(BudgetStop),
    /// Malformed or out-of-range request frames.
    Ingest(String),
    /// Any other evaluation error.
    Eval(String),
}

impl Refusal {
    /// Short typed label, e.g. `noise_refused@Act2`.
    pub fn label(&self) -> String {
        match self {
            Refusal::Noise { layer, .. } => format!("noise_refused@{layer}"),
            Refusal::Cancelled(_) => "cancelled".into(),
            Refusal::Ingest(_) => "ingest_rejected".into(),
            Refusal::Eval(_) => "eval_error".into(),
        }
    }
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::Noise { budget_bits, .. } => {
                write!(
                    f,
                    "{}: noise budget exhausted ({budget_bits:.1} bits)",
                    self.label()
                )
            }
            Refusal::Cancelled(stop) => write!(f, "{}: {stop}", self.label()),
            Refusal::Ingest(why) | Refusal::Eval(why) => write!(f, "{}: {why}", self.label()),
        }
    }
}

/// State shared by the client and the service.
#[derive(Debug, Default)]
pub struct Exchange {
    /// Request frames by request id, shared with the client (a retried
    /// attempt reads them again; the client drops them once settled).
    pub inbox: HashMap<u64, Rc<AlignedBytes>>,
    /// The latest attempt's record by request id.
    pub outbox: HashMap<u64, Served>,
    /// Requests to evaluate under [`Parallelism::Serial`].
    pub serial: HashSet<u64>,
    /// Whether to record layer and op spans.
    pub tracing: bool,
}

/// Shared handle to the [`Exchange`].
pub type SharedExchange = Rc<RefCell<Exchange>>;

enum Engine<'r> {
    Network(HeCnnExecutor<'r>, &'r Network),
    Matmul(Evaluator<'r>, usize),
}

/// An evaluation's output ciphertexts and logit layout (or refusal),
/// with the layer and op spans of a traced request.
type Evaluated = (
    Result<(Vec<Ciphertext>, Option<CtLayout>), Refusal>,
    Option<LayerSpanLog>,
    Option<OpSpanLog>,
);

/// The benchmark's inference backend over a [`Rig`].
pub struct BenchService<'r> {
    rig: &'r Rig,
    engine: Engine<'r>,
    exchange: SharedExchange,
}

impl<'r> BenchService<'r> {
    /// A service evaluating `rig`'s workload with every guard at its
    /// default (runtime noise floor 0 bits, range checks on ingest).
    pub fn new(rig: &'r Rig, exchange: SharedExchange) -> Self {
        let engine = match &rig.workload.job {
            Job::Network(net) => {
                Engine::Network(HeCnnExecutor::new(&rig.ctx, &rig.rk, &rig.gks), net)
            }
            Job::Matmul { d } => Engine::Matmul(Evaluator::new(&rig.ctx), *d),
        };
        Self {
            rig,
            engine,
            exchange,
        }
    }

    fn evaluate(
        &mut self,
        cts: Vec<Ciphertext>,
        groups: &[usize],
        budget: &Budget,
        tracing: bool,
    ) -> Evaluated {
        match &mut self.engine {
            Engine::Network(exec, net) => {
                if tracing {
                    exec.start_layer_spans();
                    exec.start_spans();
                }
                let mut it = cts.into_iter();
                let input = EncryptedInput {
                    groups: groups
                        .iter()
                        .map(|&n| it.by_ref().take(n).collect())
                        .collect(),
                };
                let out = exec
                    .try_run_with_budget(net, &input, budget)
                    .map(|o| (o.cts, Some(o.layout)))
                    .map_err(exec_refusal);
                (out, exec.take_layer_spans(), exec.take_spans())
            }
            Engine::Matmul(ev, d) => {
                if tracing {
                    ev.start_spans();
                }
                let out = match cts.as_slice() {
                    [a, b] => fxhenn::math::budget::with_budget(budget, || {
                        ct_matmul(ev, a, b, &self.rig.rk, &self.rig.gks, *d)
                    })
                    .map(|c| (vec![c], None))
                    .map_err(|e| eval_refusal("ct_matmul", e)),
                    _ => Err(Refusal::Ingest(format!(
                        "expected 2 operands, got {}",
                        cts.len()
                    ))),
                };
                (out, None, ev.take_spans())
            }
        }
    }
}

fn eval_refusal(layer: &str, e: EvalError) -> Refusal {
    match e {
        EvalError::NoiseBudgetExhausted { budget_bits } => Refusal::Noise {
            layer: layer.to_string(),
            budget_bits,
        },
        EvalError::Cancelled(stop) => Refusal::Cancelled(stop),
        e => Refusal::Eval(format!("{layer}: {e}")),
    }
}

fn exec_refusal(e: ExecError) -> Refusal {
    match e {
        ExecError::NoiseBudgetExhausted {
            layer, budget_bits, ..
        } => Refusal::Noise { layer, budget_bits },
        ExecError::Eval { layer, source } => eval_refusal(&layer, source),
        ExecError::Cancelled(stop) => Refusal::Cancelled(stop),
        e => Refusal::Eval(e.to_string()),
    }
}

/// Walks the request frames: for a network, a header frame of group
/// sizes first; then every ciphertext, decoded in place and range
/// checked against the context, then materialized for the evaluator.
fn ingest(rig: &Rig, bytes: &AlignedBytes) -> Result<(Vec<Ciphertext>, Vec<usize>), Refusal> {
    let bad = |e: &dyn std::fmt::Display| Refusal::Ingest(e.to_string());
    let mut frames = FrameCursor::new(bytes.as_bytes());
    let groups = match rig.workload.job {
        Job::Network(_) => {
            let header = frames
                .next()
                .ok_or_else(|| Refusal::Ingest("missing header frame".into()))?
                .map_err(|e| bad(&e))?;
            header
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")) as usize)
                .collect()
        }
        Job::Matmul { .. } => vec![2],
    };
    let mut cts = Vec::new();
    for frame in frames {
        let frame = frame.map_err(|e| bad(&e))?;
        let view = ingest_ciphertext(&rig.ctx, frame).map_err(|e| bad(&e))?;
        cts.push(view.to_owned_ciphertext());
    }
    if groups.iter().sum::<usize>() != cts.len() {
        return Err(Refusal::Ingest(format!(
            "header announces {} ciphertexts, stream holds {}",
            groups.iter().sum::<usize>(),
            cts.len()
        )));
    }
    Ok((cts, groups))
}

impl InferenceService for BenchService<'_> {
    type Output = ();

    fn infer(&mut self, req: &InferenceRequest, budget: &Budget) -> Result<(), AttemptError> {
        let started = Instant::now();
        let (bytes, serial, tracing) = {
            let ex = self.exchange.borrow();
            (
                ex.inbox.get(&req.id).cloned(),
                ex.serial.contains(&req.id),
                ex.tracing,
            )
        };
        let Some(bytes) = bytes else {
            return Err(AttemptError::Permanent(format!(
                "request {} has no frames",
                req.id
            )));
        };
        let ingested = ingest(self.rig, &bytes);
        let ingest_s = started.elapsed().as_secs_f64();
        let mut eval_s = 0.0;
        let mut encode_s = 0.0;
        let (mut layer_spans, mut op_spans) = (None, None);
        let result = ingested.and_then(|(cts, groups)| {
            let t = Instant::now();
            let mode = if serial {
                Parallelism::Serial
            } else {
                par::parallelism()
            };
            let (out, ls, os) =
                par::with_parallelism(mode, || self.evaluate(cts, &groups, budget, tracing));
            eval_s = t.elapsed().as_secs_f64();
            layer_spans = ls;
            op_spans = os;
            let (cts, layout) = out?;
            let t = Instant::now();
            let mut frames = AlignedBytes::new();
            for ct in &cts {
                push_frame(&mut frames, encode_ciphertext_v2(ct).as_bytes());
            }
            encode_s = t.elapsed().as_secs_f64();
            let min_budget_bits = cts
                .iter()
                .map(Ciphertext::budget_bits)
                .fold(f64::INFINITY, f64::min);
            Ok(Response {
                frames,
                layout,
                min_budget_bits,
            })
        });
        let finished = Instant::now();
        let attempt = match &result {
            Ok(_) => Ok(()),
            Err(Refusal::Cancelled(stop)) => Err(AttemptError::Cancelled(stop.clone())),
            Err(r) => Err(AttemptError::Permanent(r.to_string())),
        };
        self.exchange.borrow_mut().outbox.insert(
            req.id,
            Served {
                started,
                finished,
                ingest_s,
                eval_s,
                encode_s,
                result,
                layer_spans,
                op_spans,
            },
        );
        attempt
    }
}
