//! The load generator: one closed-loop client driving `BatchDriver`
//! on the main thread. Request encryption happens before the request
//! is submitted; decryption and the correctness gate run after the
//! clock stops.

use crate::rig::{make_request, verify_response, Expected, Rig};
use crate::service::{BenchService, Refusal, Served, SharedExchange};
use crate::stats::Outcome;
use fxhenn::{BatchDriver, InferenceRequest, ServeError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Input index of the extra request the traced run serves serially.
const SERIAL_INPUT: u64 = 1 << 32;

/// Server-side measurements of one request the service picked up.
#[derive(Debug, Clone, Default)]
pub struct ServedStats {
    /// Service start to output handed back (or refusal).
    pub service_s: f64,
    /// Frame ingest.
    pub ingest_s: f64,
    /// Evaluator or executor call.
    pub eval_s: f64,
    /// Output encoding, when the evaluation produced an output.
    pub encode_s: Option<f64>,
    /// Response size, when there was a response.
    pub response_bytes: Option<usize>,
    /// Least output noise budget, when there was a response.
    pub min_budget_bits: Option<f64>,
    /// Wall time per completed network layer (traced requests).
    pub layer_s: BTreeMap<String, f64>,
    /// Recorded ops per kind name (traced requests).
    pub op_count: BTreeMap<&'static str, usize>,
    /// Summed op span time per kind name (traced requests).
    pub op_s: BTreeMap<&'static str, f64>,
}

/// Everything the benchmark keeps about one request.
#[derive(Debug, Clone)]
pub struct Record {
    /// How it ended.
    pub outcome: Outcome,
    /// Server-side measurements, if the service picked it up.
    pub served: Option<ServedStats>,
    /// Request size on the wire.
    pub request_bytes: usize,
    /// The service's typed refusal, if any.
    pub refusal: Option<Refusal>,
    /// Max abs output error of a verified result.
    pub max_err: Option<f64>,
    /// The output decrypted but failed the correctness gate.
    pub wrong: bool,
}

/// One measured phase.
#[derive(Debug)]
pub struct Phase {
    /// Per-request records in submission order.
    pub records: Vec<Record>,
    /// Wall time of the phase.
    pub wall_s: f64,
}

impl Phase {
    /// Requests that passed the correctness gate in time.
    pub fn verified(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.outcome.is_failed())
            .count()
    }
}

type Server<'r> = BatchDriver<BenchService<'r>>;

/// A submitted request waiting for its outcome.
struct InFlight {
    id: u64,
    /// Submit time.
    since: Instant,
    request_bytes: usize,
}

fn serve_error_label(e: &ServeError) -> &'static str {
    match e {
        ServeError::Overloaded { .. } => "shed",
        ServeError::QuotaExceeded { .. } => "quota_exceeded",
        ServeError::CircuitOpen { .. } => "circuit_open",
        ServeError::Draining => "draining",
        ServeError::Cancelled(_) => "cancelled",
        ServeError::Failed { .. } => "failed",
        ServeError::InvalidConfig { .. } => "invalid_config",
    }
}

fn retry_after(e: &ServeError) -> Option<Duration> {
    match e {
        ServeError::Overloaded { retry_after, .. }
        | ServeError::QuotaExceeded { retry_after, .. }
        | ServeError::CircuitOpen { retry_after, .. } => Some(*retry_after),
        _ => None,
    }
}

fn request(rig: &Rig, id: u64) -> InferenceRequest {
    InferenceRequest::new(id, rig.workload.name, rig.workload.deadline)
}

fn stats_of(served: &Served) -> ServedStats {
    let mut s = ServedStats {
        service_s: served.finished.duration_since(served.started).as_secs_f64(),
        ingest_s: served.ingest_s,
        eval_s: served.eval_s,
        ..ServedStats::default()
    };
    if let Ok(resp) = &served.result {
        s.encode_s = Some(served.encode_s);
        s.response_bytes = Some(resp.frames.len());
        s.min_budget_bits = Some(resp.min_budget_bits);
    }
    if let Some(spans) = &served.layer_spans {
        for span in spans.spans() {
            *s.layer_s.entry(span.label.clone()).or_default() += span.nanos as f64 * 1e-9;
        }
    }
    if let Some(spans) = &served.op_spans {
        for span in spans.spans() {
            let name = span.label.0.spec().name;
            *s.op_count.entry(name).or_default() += 1;
            *s.op_s.entry(name).or_default() += span.nanos as f64 * 1e-9;
        }
    }
    s
}

/// Turns the server's outcome for `f` into a record. The response is
/// returned unverified for [`verify`], which runs off the clock.
fn settle(
    f: InFlight,
    outcome: Result<(), ServeError>,
    exchange: &SharedExchange,
    deadline: Duration,
) -> (Record, Option<Served>) {
    let served = exchange.borrow_mut().outbox.remove(&f.id);
    exchange.borrow_mut().inbox.remove(&f.id);
    let stats = served.as_ref().map(stats_of);
    let refusal = served
        .as_ref()
        .and_then(|s| s.result.as_ref().err().cloned());
    let ended = served.as_ref().map_or_else(Instant::now, |s| s.finished);
    let elapsed_s = ended.saturating_duration_since(f.since).as_secs_f64();
    let outcome = match (outcome, &refusal) {
        (Ok(()), _) if elapsed_s > deadline.as_secs_f64() => Outcome::Failed {
            reason: "late".into(),
            elapsed_s,
        },
        (Ok(()), _) => Outcome::Verified {
            latency_s: elapsed_s,
        },
        (Err(_), Some(r)) => Outcome::Failed {
            reason: r.label(),
            elapsed_s,
        },
        (Err(e), None) => Outcome::Failed {
            reason: serve_error_label(&e).into(),
            elapsed_s,
        },
    };
    let record = Record {
        outcome,
        served: stats,
        request_bytes: f.request_bytes,
        refusal,
        max_err: None,
        wrong: false,
    };
    (record, served.filter(|s| s.result.is_ok()))
}

/// Checks a settled request's response against its expected answer;
/// a result outside the gate turns the record into a failure.
fn verify(rig: &Rig, record: &mut Record, served: &Served, expected: &Expected) {
    let (Outcome::Verified { latency_s }, Ok(resp)) = (&record.outcome, &served.result) else {
        return;
    };
    match verify_response(rig, &resp.frames, resp.layout.as_ref(), expected) {
        Ok(err) => record.max_err = Some(err),
        Err(why) => {
            eprintln!("warning: request output failed the correctness gate: {why}");
            record.wrong = true;
            record.outcome = Outcome::Failed {
                reason: "wrong_result".into(),
                elapsed_s: *latency_s,
            };
        }
    }
}

/// Submits `id`, honouring the retry-after hint of a rejection while
/// the deadline allows (the closed-loop client's behaviour).
fn submit_with_retry(
    rig: &Rig,
    server: &mut Server<'_>,
    id: u64,
    since: Instant,
) -> Result<(), ServeError> {
    loop {
        match server.submit(request(rig, id)) {
            Ok(()) => return Ok(()),
            Err(e) => match retry_after(&e) {
                Some(wait) if since.elapsed() + wait < rig.workload.deadline => {
                    std::thread::sleep(wait)
                }
                _ => return Err(e),
            },
        }
    }
}

/// Serves one closed-loop request for input `index`.
fn closed_request(
    rig: &Rig,
    server: &mut Server<'_>,
    exchange: &SharedExchange,
    seed: u64,
    index: u64,
    id: u64,
    serial: bool,
) -> Result<Record, String> {
    let (frames, expected) = make_request(rig, seed, index)?;
    let request_bytes = frames.len();
    {
        let mut ex = exchange.borrow_mut();
        ex.inbox.insert(id, frames);
        if serial {
            ex.serial.insert(id);
        }
    }
    let since = Instant::now();
    let outcome = submit_with_retry(rig, server, id, since).and_then(|()| {
        let (_, outcome) = server
            .run_queue()
            .pop()
            .expect("BatchDriver serves the request it admitted");
        outcome
    });
    exchange.borrow_mut().serial.remove(&id);
    let f = InFlight {
        id,
        since,
        request_bytes,
    };
    let (mut record, served) = settle(f, outcome, exchange, rig.workload.deadline);
    if let Some(served) = served {
        verify(rig, &mut record, &served, &expected);
    }
    Ok(record)
}

/// One extra closed-loop request, optionally under serial execution.
///
/// # Errors
///
/// Client-side encryption errors.
pub fn serve_single(
    rig: &Rig,
    server: &mut Server<'_>,
    exchange: &SharedExchange,
    seed: u64,
    next_id: &mut u64,
    serial: bool,
) -> Result<Record, String> {
    let id = *next_id;
    *next_id += 1;
    closed_request(rig, server, exchange, seed, SERIAL_INPUT, id, serial)
}

/// Runs one measured closed-loop phase of `seconds`: each request is
/// submitted once the previous one has been settled and checked.
///
/// # Errors
///
/// Client-side encryption errors.
pub fn run_phase(
    rig: &Rig,
    server: &mut Server<'_>,
    exchange: &SharedExchange,
    seed: u64,
    seconds: f64,
    next_id: &mut u64,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut records = Vec::new();
    let mut index = 0u64;
    loop {
        let id = *next_id;
        *next_id += 1;
        records.push(closed_request(
            rig, server, exchange, seed, index, id, false,
        )?);
        index += 1;
        // Another request goes out only if, at the mean request time so
        // far, it would end nearer to `seconds` than stopping now: a
        // phase of requests as long as itself neither overshoots by
        // most of a request nor stops short on average.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / records.len() as f64 / 2.0 >= seconds {
            break;
        }
    }
    Ok(Phase {
        records,
        wall_s: start.elapsed().as_secs_f64(),
    })
}
