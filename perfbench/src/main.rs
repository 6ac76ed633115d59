//! Benchmark of encrypted inference over the FxHENN workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mnist_paper --seed 1 --seconds 24 --trace 0
//! ```
//!
//! A run measures one workload. With `--trace 0` it starts the
//! workload's `processes` serving processes of itself in turn; each sets up
//! `PROCESS_SETUP_REPS` times and serves its share of the time through
//! `BatchDriver`, with the client's encryption, decryption and
//! correctness checks off the clock, and the run reports the
//! end-to-end metrics over all of them. With
//! `--trace 1` one process serves an untraced and a traced half-phase,
//! one serial request, and direct op timings, and reports the per-layer
//! metrics. Every metric is printed as a `# metric` line with its unit;
//! the last line is the JSON result. See `README.md` for the metric
//! map.

mod client;
mod probe;
mod report;
mod rig;
mod service;
mod stats;

use client::{run_phase, serve_single, Phase, Record};
use fxhenn::ckks::{encode_galois_keys_v2, encode_relin_key_v2, HeOpKind};
use fxhenn::{BatchDriver, ServeConfig};
use report::{Metrics, RunMeta};
use rig::{Rig, SetupTimes, Workload};
use service::{BenchService, Exchange, Refusal, SharedExchange};
use stats::{mean, median};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::rc::Rc;
use std::time::Instant;

/// Set-up repetitions per end-to-end process. `setup_s` is the median
/// over all processes, so each sample is a cold start as a deployment
/// sees it.
const PROCESS_SETUP_REPS: usize = 1;

/// Set-up repetitions of a traced run.
const TRACE_SETUP_REPS: usize = 3;

/// Layer names of the benchmarked networks, in the per-layer metric
/// set for every workload.
const LAYERS: [&str; 7] = ["Cnv1", "Act1", "Pool1", "Bn1", "Fc1", "Act2", "Fc2"];

/// HE op kinds whose per-request count and self time are reported.
const OP_KINDS: [HeOpKind; 9] = [
    HeOpKind::CcAdd,
    HeOpKind::PcAdd,
    HeOpKind::PcMult,
    HeOpKind::CcMult,
    HeOpKind::Rescale,
    HeOpKind::ModSwitch,
    HeOpKind::Relinearize,
    HeOpKind::Rotate,
    HeOpKind::CtMatmul,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: this process is one of an end-to-end run's serving
    /// processes and prints raw samples for its parent.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::named(&name).ok_or(format!(
                    "unknown workload {name}; known: {}",
                    Workload::NAMES.join(", ")
                ))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--child" => child = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.trace, args.child) {
        (true, _) => run_traced(&args),
        (false, true) => run_child(&args),
        (false, false) => run_end_to_end(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the `BatchDriver` over `rig` that every phase serves through.
fn new_server<'r>(rig: &'r Rig, exchange: &SharedExchange) -> BatchDriver<BenchService<'r>> {
    BatchDriver::new(
        BenchService::new(rig, exchange.clone()),
        ServeConfig::default(),
    )
}

/// Set-up, timed `reps` times; the last rig is kept.
fn setup(args: &Args, reps: usize) -> Result<(Rig, Vec<SetupTimes>), String> {
    let mut all = Vec::with_capacity(reps);
    loop {
        let t = Instant::now();
        let (rig, mut times) = Rig::build(&args.workload, args.seed)?;
        let exchange: SharedExchange = Rc::new(RefCell::new(Exchange::default()));
        drop(new_server(&rig, &exchange));
        times.total_s = t.elapsed().as_secs_f64();
        all.push(times);
        if all.len() == reps {
            return Ok((rig, all));
        }
    }
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// One serving process of an end-to-end run: prints its raw samples as
/// `@` lines for the parent.
fn run_child(args: &Args) -> Result<bool, String> {
    let (rig, setups) = setup(args, PROCESS_SETUP_REPS)?;
    let exchange: SharedExchange = Rc::new(RefCell::new(Exchange::default()));
    let mut server = new_server(&rig, &exchange);
    let phase = run_phase(
        &rig,
        &mut server,
        &exchange,
        args.seed,
        args.seconds,
        &mut 0,
    )?;
    let deadline_s = rig.workload.deadline.as_secs_f64();
    for t in &setups {
        println!("@setup {:?}", t.total_s);
    }
    for r in &phase.records {
        println!("@latency {:?}", r.outcome.charged_latency_s(deadline_s));
        if let Some(served) = &r.served {
            println!("@service {:?}", served.service_s);
        }
        if let stats::Outcome::Failed { reason, .. } = &r.outcome {
            println!("@failure {reason}");
        }
        if r.wrong {
            println!("@wrong");
        }
    }
    println!("@verified {} {:?}", phase.verified(), phase.wall_s);
    println!("@rss {:?}", report::peak_rss_mb()?);
    println!("@threshold {}", fxhenn::math::par::dispatch_threshold());
    Ok(true)
}

/// The samples of an end-to-end run's serving processes.
#[derive(Debug, Default)]
struct Samples {
    setup: Vec<f64>,
    latency: Vec<f64>,
    service: Vec<f64>,
    failures: BTreeMap<String, usize>,
    wrong: usize,
    verified: usize,
    wall_s: f64,
    rss: Vec<f64>,
    thresholds: Vec<f64>,
}

impl Samples {
    fn absorb(&mut self, stdout: &str) -> Result<(), String> {
        let num = |v: Option<&str>| -> Result<f64, String> {
            v.and_then(|v| v.parse().ok())
                .ok_or(format!("malformed sample line in {stdout:?}"))
        };
        for line in stdout.lines() {
            let mut parts = line.splitn(3, ' ');
            match parts.next() {
                Some("@setup") => self.setup.push(num(parts.next())?),
                Some("@latency") => self.latency.push(num(parts.next())?),
                Some("@service") => self.service.push(num(parts.next())?),
                Some("@failure") => {
                    *self
                        .failures
                        .entry(parts.next().unwrap_or("unknown").to_string())
                        .or_default() += 1;
                }
                Some("@wrong") => self.wrong += 1,
                Some("@verified") => {
                    self.verified += num(parts.next())? as usize;
                    self.wall_s += num(parts.next())?;
                }
                Some("@rss") => self.rss.push(num(parts.next())?),
                Some("@threshold") => self.thresholds.push(num(parts.next())?),
                _ => {}
            }
        }
        Ok(())
    }
}

/// An end-to-end run: the workload's serving processes in turn, each
/// with its share of the serving time and a seed derived from the run's.
fn run_end_to_end(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let w = &args.workload;
    let mut s = Samples::default();
    for k in 0..w.processes {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "0", "--child"])
            .args([
                "--seed",
                &stats::derive_seed(args.seed, 5, k as u64).to_string(),
            ])
            .args([
                "--seconds",
                &(args.seconds / w.processes as f64).to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("serving process {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("serving process {k} failed: {}", out.status));
        }
        s.absorb(&String::from_utf8_lossy(&out.stdout))?;
    }
    let deadline_s = w.deadline.as_secs_f64();
    let mut m = Metrics::default();
    m.put(
        "latency_p50_s",
        median(&s.latency).ok_or("no request was attempted")?,
        "s",
    );
    m.put("setup_s", median(&s.setup).ok_or("no set-up sample")?, "s");
    // A process whose dispatcher spawns workers peaks higher (glibc
    // gives each worker thread its own arena) than one that never
    // spawns, so the processes' peaks fall into two modes. Their mean
    // moves smoothly with the share of spawning processes, where the
    // median would jump between the modes.
    m.put("peak_rss_mb", mean(&s.rss).ok_or("no memory sample")?, "MB");
    m.note(
        "latency_mean_s",
        mean(&s.latency).unwrap_or(deadline_s),
        "s",
    );
    if let Some((p, v)) = stats::tail(&s.latency) {
        m.note(&format!("latency_p{p}_s"), v, "s");
    }
    m.note("goodput_per_s", s.verified as f64 / s.wall_s, "1/s");
    m.note("service_p50_s", median(&s.service).unwrap_or(0.0), "s");
    for (k, t) in s.thresholds.iter().enumerate() {
        m.note(&format!("par_dispatch_threshold.process{k}"), *t, "elems");
    }
    let failed: usize = s.failures.values().sum();
    RunMeta::new(
        w,
        args.seed,
        args.seconds,
        false,
        w.processes,
        PROCESS_SETUP_REPS,
    )
    .print();
    report::print_failures(&s.failures);
    m.print();
    let correct = s.wrong == 0;
    println!(
        "{}",
        report::result_json(correct, s.latency.len(), failed, &m)?
    );
    Ok(correct)
}

/// A traced run in one process: an untraced and a traced half-phase,
/// one serial request, and direct op timings.
fn run_traced(args: &Args) -> Result<bool, String> {
    let (rig, setups) = setup(args, TRACE_SETUP_REPS)?;
    let exchange: SharedExchange = Rc::new(RefCell::new(Exchange::default()));
    let mut server = new_server(&rig, &exchange);
    let mut m = Metrics::default();
    let mut next_id = 0u64;

    let half = args.seconds / 2.0;
    let plain = run_phase(&rig, &mut server, &exchange, args.seed, half, &mut next_id)?;
    let before = server.report().clone();
    exchange.borrow_mut().tracing = true;
    let traced = run_phase(&rig, &mut server, &exchange, args.seed, half, &mut next_id)?;
    exchange.borrow_mut().tracing = false;
    let after = server.report().clone();
    let serial = serve_single(&rig, &mut server, &exchange, args.seed, &mut next_id, true)?;

    per_layer(&mut m, &rig, &setups, &plain, &traced, &serial);
    m.put("serve.shed", (after.shed - before.shed) as f64, "count");
    m.put(
        "serve.cancelled",
        (after.cancelled - before.cancelled) as f64,
        "count",
    );
    m.put(
        "serve.retries",
        (after.retries - before.retries) as f64,
        "count",
    );
    m.note(
        "par.dispatch_threshold",
        fxhenn::math::par::dispatch_threshold() as f64,
        "elems",
    );
    for (name, v) in probe::op_timings(&rig, args.seed)? {
        m.put(name, v, "s");
    }
    let (hops, kss) = match (&rig.design, probe::matmul_counts(&rig, args.seed)?) {
        (Some(d), _) => (d.program.hop_count(), d.program.key_switch_count()),
        (None, Some(counts)) => counts,
        (None, None) => (0, 0),
    };
    m.put("nn.hops", hops as f64, "count");
    m.put("nn.key_switches", kss as f64, "count");
    m.put("ckks.galois_keys", rig.gks.len() as f64, "count");
    let key_bytes = encode_relin_key_v2(&rig.rk).len() + encode_galois_keys_v2(&rig.gks).len();
    m.put("ckks.key_bytes", key_bytes as f64, "bytes");

    let records: Vec<Record> = plain
        .records
        .into_iter()
        .chain(traced.records)
        .chain(std::iter::once(serial))
        .collect();
    let failed = records.iter().filter(|r| r.outcome.is_failed()).count();
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    for r in &records {
        if let stats::Outcome::Failed { reason, .. } = &r.outcome {
            *reasons.entry(reason.clone()).or_default() += 1;
        }
    }
    let correct = records.iter().all(|r| !r.wrong);
    RunMeta::new(
        &rig.workload,
        args.seed,
        args.seconds,
        true,
        1,
        TRACE_SETUP_REPS,
    )
    .print();
    report::print_failures(&reasons);
    m.print();
    println!(
        "{}",
        report::result_json(correct, records.len(), failed, &m)?
    );
    Ok(correct)
}

/// Fills the per-layer metric set from one traced run.
fn per_layer(
    m: &mut Metrics,
    rig: &Rig,
    setups: &[SetupTimes],
    plain: &Phase,
    traced: &Phase,
    serial: &Record,
) {
    let served = || traced.records.iter().filter_map(|r| r.served.as_ref());
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);

    // core.serve
    let traced_service = med(served().map(|s| s.service_s).collect());
    m.put("serve.service_p50_s", traced_service, "s");

    // core.wire / ckks.wire
    m.put(
        "wire.ingest_p50_s",
        med(served().map(|s| s.ingest_s).collect()),
        "s",
    );
    m.put_or_absent(
        "wire.encode_p50_s",
        median(&served().filter_map(|s| s.encode_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "wire.request_bytes",
        med(traced
            .records
            .iter()
            .map(|r| r.request_bytes as f64)
            .collect()),
        "bytes",
    );
    m.put_or_absent(
        "wire.response_bytes",
        median(
            &served()
                .filter_map(|s| s.response_bytes.map(|b| b as f64))
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );

    // core.flow -> nn / dse / sim
    let design = rig.design.as_ref();
    let flow = |f: fn(&SetupTimes) -> f64| design.map(|_| median_of(setups, f));
    m.put_or_absent("flow.lower_s", flow(|t| t.lower_s), "s");
    m.put_or_absent("flow.noise_plan_s", flow(|t| t.noise_plan_s), "s");
    m.put_or_absent("dse.explore_s", flow(|t| t.explore_s), "s");
    m.put_or_absent("sim.simulate_s", flow(|t| t.simulate_s), "s");
    m.put_or_absent("dse.points", design.map(|d| d.points as f64), "count");
    m.put_or_absent(
        "sim.modeled_latency_s",
        design.map(|d| d.sim.total_seconds),
        "s",
    );
    m.put("ckks.keygen_s", median_of(setups, |t| t.keygen_s), "s");

    // nn executor: eval time, per-layer and per-op self time
    m.put(
        "nn.eval_p50_s",
        med(served().map(|s| s.eval_s).collect()),
        "s",
    );
    for layer in LAYERS {
        let measured: Vec<f64> = served()
            .filter_map(|s| s.layer_s.get(layer).copied())
            .collect();
        let modeled = design
            .and_then(|d| d.sim.layers.iter().find(|l| l.name == layer))
            .map(|l| l.seconds);
        let measured = median(&measured);
        m.put_or_absent(&format!("nn.layer.{layer}_s"), measured, "s");
        m.put_or_absent(&format!("sim.modeled.{layer}_s"), modeled, "s");
        let ratio = measured
            .zip(modeled)
            .filter(|(_, b)| *b > 0.0)
            .map(|(a, b)| a / b);
        m.put_or_absent(
            &format!("attr.{layer}.measured_over_modeled"),
            ratio,
            "ratio",
        );
    }
    for kind in OP_KINDS {
        let name = kind.spec().name;
        let counts: Vec<f64> = served()
            .map(|s| s.op_count.get(name).copied().unwrap_or(0) as f64)
            .collect();
        let secs: Vec<f64> = served()
            .map(|s| s.op_s.get(name).copied().unwrap_or(0.0))
            .collect();
        m.put(&format!("nn.op.{name}.count"), med(counts), "count");
        m.put(&format!("nn.op.{name}_s"), med(secs), "s");
    }

    // noise
    let all = || {
        plain
            .records
            .iter()
            .chain(&traced.records)
            .chain(std::iter::once(serial))
    };
    m.put_or_absent(
        "noise.plan_final_bits",
        design.map(|d| d.noise.terminal_budget_bits),
        "bits",
    );
    let runtime = all()
        .filter_map(|r| r.served.as_ref().and_then(|s| s.min_budget_bits))
        .fold(None, |acc: Option<f64>, b| {
            Some(acc.map_or(b, |a| a.min(b)))
        });
    m.put_or_absent("noise.runtime_final_bits", runtime, "bits");
    let worst_err = all()
        .filter_map(|r| r.max_err)
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |a| a.max(e)))
        });
    m.put_or_absent(
        "noise.measured_bits",
        worst_err.filter(|e| *e > 0.0).map(|e| -e.log2()),
        "bits",
    );
    let refusals: Vec<f64> = all()
        .filter_map(|r| match &r.refusal {
            Some(Refusal::Noise { budget_bits, .. }) => Some(*budget_bits),
            _ => None,
        })
        .collect();
    m.put("noise.refusals", refusals.len() as f64, "count");
    m.put_or_absent(
        "noise.refusal_budget_bits",
        refusals.iter().copied().reduce(f64::min),
        "bits",
    );

    // par / obs: both against the untraced half-phase
    let plain_service = med(plain
        .records
        .iter()
        .filter_map(|r| r.served.as_ref().map(|s| s.service_s))
        .collect());
    let serial_service = serial.served.as_ref().map(|s| s.service_s);
    m.put_or_absent(
        "par.serial_over_threaded",
        serial_service
            .filter(|_| plain_service > 0.0)
            .map(|s| s / plain_service),
        "ratio",
    );
    m.put_or_absent(
        "obs.trace_overhead_share",
        (plain_service > 0.0).then(|| (traced_service - plain_service) / plain_service),
        "ratio",
    );
}
