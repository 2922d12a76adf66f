//! The repository's benchmark. It builds the paper-size partitioned SelNet
//! (n = 20k, d = 24, L = 50, K = 3 cover-tree partitions) and runs one
//! workload through the public serving stack, checking every answer.
//!
//! ```text
//! perfbench --workload <wave|curve|update> --seed <n> --seconds <s> --trace <0|1>
//!           [--model-seed <n>]
//! ```
//!
//! The program runs with one compute thread and one engine worker unless
//! `SELNET_THREADS` names another count.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Standard error
//! carries a readable report. See README.md beside this file.

mod checks;
mod curve;
mod metrics;
mod oracle;
mod service;
mod setup;
mod stats;
mod trace;
mod update;
mod wave;

use checks::Checks;
use metrics::{render, Values, END_TO_END, PER_LAYER};
use oracle::{constant_mape, mape, mape_optimal_constant, Oracle};
use rand::rngs::StdRng;
use rand::Rng;
use selnet_client::{ClientConfig, Connection};
use selnet_index::Partitioning;
use selnet_obs::{Span, SpanRecorder};
use selnet_serve::engine::Request;
use selnet_workload::LabeledQuery;
use service::{engine_config, Service};
use setup::{Built, TENANT};
use stats::{median, sorted_quantile, tail_percentile, Slices};
use std::path::PathBuf;
use std::time::Instant;

/// Seconds of untimed traffic before each timed pass.
pub const WARMUP_S: f64 = 0.5;
/// Wall time of one measuring slice; throughput and latency figures are
/// medians over the slices of a pass.
pub const SLICE_S: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The default model seed (the repository's reproduction default).
const MODEL_SEED: u64 = 7;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Wave,
    Curve,
    Update,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Wave => "wave",
            Workload::Curve => "curve",
            Workload::Update => "update",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    model_seed: u64,
}

const USAGE: &str = "usage: perfbench --workload <wave|curve|update> --seed <n> --seconds <s> \
                     --trace <0|1> [--model-seed <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut model_seed = MODEL_SEED;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "wave" => Workload::Wave,
                    "curve" => Workload::Curve,
                    "update" => Workload::Update,
                    _ => return Err(bad("expected wave, curve or update")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--model-seed" => model_seed = value.parse().map_err(|_| bad("expected an integer"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        model_seed,
    })
}

/// The first `k` entries of a seeded permutation of `0..n`.
pub fn shuffled_prefix(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k <= n, "cannot draw {k} of {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// `Partitioning::indicator_into` timed over `rows` (median of three
/// sweeps) per row, and the mean number of partitions it switches on.
pub fn indicator_per_row(partitioning: &Partitioning, rows: &[(&[f32], f32)]) -> (f64, f64) {
    let mut ind = Vec::new();
    let mut sweeps = Vec::new();
    let mut on = 0usize;
    for _ in 0..3 {
        on = 0;
        let started = Instant::now();
        for &(x, t) in rows {
            partitioning.indicator_into(x, t, &mut ind);
            on += ind.iter().filter(|&&b| b).count();
        }
        sweeps.push(started.elapsed().as_secs_f64() * 1e6 / rows.len().max(1) as f64);
    }
    (median(&sweeps), on as f64 / rows.len().max(1) as f64)
}

/// The compute threads of the program, which are also its engine
/// workers: `SELNET_THREADS` when it names a positive count, one
/// otherwise. Two busy program threads beside the load generator on a
/// two-core host measure the scheduler (see README.md, *Threads*).
fn compute_threads() -> usize {
    let from_env = std::env::var("SELNET_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .is_some_and(|n| n > 0);
    if !from_env {
        selnet_tensor::parallel::set_threads(1);
    }
    selnet_tensor::parallel::configured_threads()
}

/// One set-up: build the model, start the workload's service and serve
/// the first estimate. Returns the build and its wall time.
fn set_up(args: &Args, workers: usize) -> (Built, f64) {
    let started = Instant::now();
    let built = setup::build(args.model_seed);
    let q = &built.workload.test[0];
    let tcp = args.workload == Workload::Wave;
    let svc = Service::start(built.model.clone(), &engine_config(workers, 0), tcp);
    let first = if tcp {
        let mut conn = Connection::connect_with(svc.addr(), &ClientConfig::default())
            .expect("connect to the loopback server");
        conn.estimate(Some(TENANT), &q.x, &q.thresholds[..1])
            .expect("first estimate over TCP")
    } else {
        svc.engine
            .serve_blocking(
                &Request::new(q.x.clone())
                    .thresholds(q.thresholds.clone())
                    .model(TENANT),
            )
            .expect("first estimate")
    };
    let elapsed = started.elapsed().as_secs_f64();
    std::hint::black_box(first);
    svc.shutdown();
    (built, elapsed)
}

/// Serves `queries` in process, one sweep per query, as operations of
/// the verification set.
pub fn serve_in_process(
    svc: &Service,
    queries: &[LabeledQuery],
    records: usize,
    checks: &mut Checks,
) -> Vec<Vec<f64>> {
    queries
        .iter()
        .map(|q| {
            let req = Request::new(q.x.clone())
                .thresholds(q.thresholds.clone())
                .model(TENANT);
            curve::serve_one(svc, &req, false, true, records, checks)
                .map(|(v, _)| v)
                .unwrap_or_else(|| vec![f64::NAN; q.thresholds.len()])
        })
        .collect()
}

/// Scores served answers on the held-out queries: consistency of each
/// query's answers along its ascending thresholds, and MAPE against the
/// exact labels. The accuracy gate is one counted operation: the model's
/// MAPE must beat that of the best constant estimator, the constant that
/// minimizes MAPE on the training labels.
fn score(
    answers: &[Vec<f64>],
    queries: &[LabeledQuery],
    train: &[LabeledQuery],
    records: usize,
    checks: &mut Checks,
) -> f64 {
    let mut pairs = Vec::new();
    for (a, q) in answers.iter().zip(queries) {
        checks.reply(a, records);
        pairs.extend(a.iter().copied().zip(q.selectivities.iter().copied()));
    }
    let model_mape = mape(&pairs);
    let train_labels: Vec<f64> = train
        .iter()
        .flat_map(|q| q.selectivities.iter().copied())
        .collect();
    let truths: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (c, _) = mape_optimal_constant(&train_labels);
    let constant = constant_mape(c, &truths);
    eprintln!(
        "accuracy: SelNet MAPE {model_mape:.4} over {} answers; the best constant estimator \
         (the MAPE-optimal constant of the training labels, {c}) scores {constant:.4}",
        pairs.len(),
    );
    checks.attempted += 1;
    if model_mape.is_nan() || model_mape >= constant {
        checks.failed += 1;
        eprintln!(
            "FAILED operation: accuracy gate: MAPE {model_mape:.4} does not beat the best \
             constant's {constant:.4}"
        );
    }
    model_mape
}

/// The end-to-end serving figures of a pass: medians over its slices.
/// The tail is reported on standard error only: its run-to-run spread on
/// `wave` (p99 0.36–0.54, p90 0.24 of the median) is wider than any
/// bound it could be given.
fn serving_metrics(slices: &Slices, values: &mut Values) {
    values.insert("estimates_per_s", median(&slices.rates));
    values.insert("latency_p50_ms", median(&slices.p50s) / 1e3);
    eprintln!(
        "latency tail, median over slices: p90 {:.4} ms, p99 {:.4} ms",
        median(&slices.p90s) / 1e3,
        median(&slices.p99s) / 1e3
    );
    let mut sorted = slices.all.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    match tail_percentile(sorted.len()) {
        Some(p) => eprintln!(
            "latency over {} requests in {} slices: p50 {:.4} ms, p{p} {:.4} ms (the highest \
             percentile with ten samples beyond it)",
            sorted.len(),
            slices.rates.len(),
            sorted_quantile(&sorted, 0.5) / 1e3,
            sorted_quantile(&sorted, p / 100.0) / 1e3
        ),
        None => eprintln!("latency over {} requests: too few for a tail", sorted.len()),
    }
    let per_slice = |v: &[f64], scale: f64| -> String {
        v.iter()
            .map(|x| format!("{:.0}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("slices: estimates/s {}", per_slice(&slices.rates, 1.0));
    eprintln!("slices: p50 us {}", per_slice(&slices.p50s, 1.0));
    eprintln!("slices: p90 us {}", per_slice(&slices.p90s, 1.0));
    eprintln!("slices: p99 us {}", per_slice(&slices.p99s, 1.0));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = compute_threads();
    eprintln!("threads: {workers} compute thread(s), {workers} engine worker(s)");
    let global = selnet_obs::trace::global();
    if args.trace {
        global.enable(trace::RING);
    }
    let bench = if args.trace {
        SpanRecorder::with_capacity(trace::RING)
    } else {
        SpanRecorder::disabled()
    };
    let mut checks = Checks::default();
    let mut e2e = Values::new();
    let mut layers = Values::new();

    // set-up, repeated; every repetition must write the same snapshot
    let mut setup_s = Vec::new();
    let mut times = Vec::new();
    let mut built: Option<Built> = None;
    for _ in 0..SETUP_REPS {
        let previous = built.take().map(|b| b.snapshot);
        let (b, s) = set_up(&args, workers);
        if previous.is_some_and(|p| p != b.snapshot) {
            checks.fail("two set-ups from one model seed wrote different snapshots");
        }
        setup_s.push(s);
        times.push(b.times.clone());
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    e2e.insert("setup_s", median(&setup_s));
    let med = |f: fn(&setup::SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    layers.insert("data.generate_s", med(|t| t.generate_s));
    layers.insert("workload.label_s", med(|t| t.label_s));
    layers.insert("core.fit_s", med(|t| t.fit_s));
    layers.insert("core.snapshot_save_ms", med(|t| t.save_ms));
    layers.insert("core.snapshot_load_ms", med(|t| t.load_ms));
    layers.insert("core.snapshot_bytes", built.snapshot.len() as f64);
    let setup_spans = global.snapshot();
    let compile_ns: u64 = setup_spans
        .iter()
        .filter(|s| s.kind == "plan_compile")
        .map(|s| s.dur_ns)
        .sum();
    layers.insert(
        "tensor.plan_compile_ms",
        compile_ns as f64 / 1e6 / SETUP_REPS as f64,
    );
    global.disable();
    eprintln!("set-up: {setup_s:?} s");

    // inputs: the exact-count oracle checks the generator's labels, then
    // the request lists are drawn from --seed
    let oracle = Oracle::new(&built.ds);
    let bad = setup::check_labels(&oracle, &built.workload);
    let checked: usize = built
        .workload
        .test
        .iter()
        .chain(built.workload.train.iter().step_by(8))
        .map(LabeledQuery::len)
        .sum();
    checks.labels(checked as u64, bad as u64);

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let test = &built.workload.test;
    let train = &built.workload.train;
    let fresh = &built.fresh;
    let mut spans: Vec<(&str, Vec<Span>)> = vec![("setup", setup_spans)];
    let traced_eps = match args.workload {
        Workload::Wave => {
            let list = wave::make_list(fresh, &oracle, args.seed);
            let svc = Service::start(built.model.clone(), &engine_config(workers, 0), true);
            let p = wave::pass(
                &svc,
                fresh,
                &list,
                seconds,
                &SpanRecorder::disabled(),
                &mut checks,
            );
            serving_metrics(&p.slices, &mut e2e);
            let answers = wave::serve_queries(&svc, test, &mut checks);
            e2e.insert(
                "mape",
                score(&answers, test, train, setup::RECORDS, &mut checks),
            );
            svc.shutdown();
            eprintln!(
                "wave: {} distinct objects; each recurs once per {} requests",
                wave::OBJECTS,
                wave::OBJECTS
            );
            args.trace.then(|| {
                global.enable(trace::RING);
                let svc = Service::start(
                    built.model.clone(),
                    &engine_config(workers, trace::RING),
                    true,
                );
                let p = wave::pass(&svc, fresh, &list, seconds, &bench, &mut checks);
                wave::layers(&svc, fresh, &list, &p, &mut layers);
                spans.push(("engine", svc.engine.spans()));
                svc.shutdown();
                median(&p.slices.rates)
            })
        }
        Workload::Curve => {
            let list = curve::make_list(fresh, &oracle, args.model_seed, 0, args.seed);
            eprintln!(
                "curve: {} requests over {} objects; {:.1}% of requests repeat an earlier object",
                curve::REQUESTS,
                curve::POOL,
                100.0 * curve::recurring_share(&list.objects)
            );
            let svc = Service::start(built.model.clone(), &engine_config(workers, 0), false);
            let p = curve::pass(&svc, &list, seconds, false, &mut checks);
            serving_metrics(&p, &mut e2e);
            let answers = serve_in_process(&svc, test, setup::RECORDS, &mut checks);
            e2e.insert(
                "mape",
                score(&answers, test, train, setup::RECORDS, &mut checks),
            );
            svc.shutdown();
            args.trace.then(|| {
                global.enable(trace::RING);
                let svc = Service::start(
                    built.model.clone(),
                    &engine_config(workers, trace::RING),
                    false,
                );
                let p = curve::pass(&svc, &list, seconds, true, &mut checks);
                let (_, model) = svc.tenant.current();
                curve::layers(&svc, &model, &list, &p, &mut layers);
                spans.push(("engine", svc.engine.spans()));
                svc.shutdown();
                median(&p.rates)
            })
        }
        Workload::Update => {
            let reads = curve::make_list(fresh, &oracle, args.model_seed, 0, args.seed);
            let run = |trace_buffer: usize, traced: bool, checks: &mut Checks| {
                let svc = Service::start(
                    built.model.clone(),
                    &engine_config(workers, trace_buffer),
                    false,
                );
                let p = update::pass(
                    &svc,
                    &built,
                    &reads,
                    args.model_seed,
                    seconds,
                    traced,
                    &bench,
                    checks,
                );
                (svc, p)
            };
            let (svc, p) = run(0, false, &mut checks);
            serving_metrics(&p.slices, &mut e2e);
            e2e.insert(
                "mape",
                score(
                    &p.first_answers,
                    &p.first_test,
                    train,
                    p.first_records,
                    &mut checks,
                ),
            );
            eprintln!(
                "update: {} ops at {:.0} ops/s; retrain median {:.3} s over {} retrains",
                p.op_us.len(),
                update::updates_per_s(&p),
                median(&p.retrain_s),
                p.retrain_s.len()
            );
            svc.shutdown();
            args.trace.then(|| {
                global.enable(trace::RING);
                let (svc, p) = run(trace::RING, true, &mut checks);
                update::layers(&p, &mut layers);
                spans.push(("engine", svc.engine.spans()));
                svc.shutdown();
                median(&p.slices.rates)
            })
        }
    };
    e2e.insert("peak_rss_mb", stats::peak_rss_mb());

    if let Some(traced) = traced_eps {
        layers.insert("obs.trace_overhead", traced / e2e["estimates_per_s"]);
        spans.push(("global", global.snapshot()));
        spans.push(("bench", bench.snapshot()));
        let name = format!("spans-{}-{}.tsv", args.workload.name(), args.seed);
        let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "out", &name].iter().collect();
        match trace::write_spans(&path, &spans) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                spans.iter().map(|(_, s)| s.len()).sum::<usize>(),
                path.display()
            ),
            Err(e) => checks.fail(format!("writing {}: {e}", path.display())),
        }
    }

    for line in checks.summary() {
        eprintln!("check: {line}");
    }
    let (list, values) = if args.trace {
        (PER_LAYER, &layers)
    } else {
        (END_TO_END, &e2e)
    };
    for m in list {
        eprintln!(
            "{:<32} {:>14.4} {}",
            m.name,
            values.get(m.name).copied().unwrap_or(0.0),
            m.unit
        );
    }
    println!(
        "{}",
        render(
            checks.correct(),
            checks.attempted,
            checks.failed,
            list,
            values
        )
    );
}
