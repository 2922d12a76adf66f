//! `update`: writes beside reads. Each round applies a fixed number of
//! §7.6 insert/delete operations with incremental label maintenance, then
//! spawns a forced §5.4 `check_and_update` retrain through
//! `Tenant::spawn_update`; while it runs, `curve`-shaped reads continue,
//! and the retrained generation is hot-swapped in.

use crate::checks::{Checks, SAMPLE_EVERY};
use crate::curve::{serve_one, CurveList};
use crate::oracle::Oracle;
use crate::service::Service;
use crate::setup::{Built, KIND};
use crate::stats::{median, Slices};
use selnet_core::{PartitionedSelNet, UpdatePolicy};
use selnet_obs::trace::global;
use selnet_obs::SpanRecorder;
use selnet_workload::{LabeledQuery, UpdateSimulator};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Update operations per round (each inserts or deletes 5 records).
pub const OPS_PER_ROUND: usize = 200;
/// Epochs of each forced retrain; the patience exceeds it, so every
/// retrain runs exactly this many.
pub const RETRAIN_EPOCHS: usize = 2;

/// The §5.4 policy of every retrain: forced (negative tolerance), no
/// early stop.
pub fn policy() -> UpdatePolicy {
    UpdatePolicy {
        mae_tolerance: -1.0,
        patience: RETRAIN_EPOCHS + 1,
        max_epochs: RETRAIN_EPOCHS,
    }
}

/// What one timed pass measured.
pub struct Pass {
    /// Reads served while a retrain was running, sliced by wall time.
    pub slices: Slices,
    pub op_us: Vec<f64>,
    /// Wall time of each retrain as its `SwapRecord` holds it: clone and
    /// retrain, measured on the update thread.
    pub retrain_s: Vec<f64>,
    /// Retrain closure return to visible swap, per retrain (traced pass
    /// only).
    pub publish_ms: Vec<f64>,
    pub reads_per_retrain: Vec<f64>,
    pub epochs: Vec<f64>,
    /// Answers of the first retrained generation on the test split, and
    /// the split's labels as maintained at that point (untraced pass
    /// only).
    pub first_answers: Vec<Vec<f64>>,
    pub first_test: Vec<LabeledQuery>,
    /// Database size when the first retrain was published.
    pub first_records: usize,
}

/// Runs whole rounds until `seconds` have passed (at least one round).
/// The op stream comes from `stream_seed`, the reads from `reads`.
#[allow(clippy::too_many_arguments)]
pub fn pass(
    svc: &Service,
    built: &Built,
    reads: &CurveList,
    stream_seed: u64,
    seconds: f64,
    traced: bool,
    bench: &SpanRecorder,
    checks: &mut Checks,
) -> Pass {
    let mut ds = built.ds.clone();
    let mut train = built.workload.train.clone();
    let mut valid = built.workload.valid.clone();
    let mut test = built.workload.test.clone();
    let mut sim = UpdateSimulator::new(stream_seed ^ 0x0b5e);
    let mut out = Pass {
        slices: Slices::new(crate::SLICE_S),
        op_us: Vec::new(),
        retrain_s: Vec::new(),
        publish_ms: Vec::new(),
        reads_per_retrain: Vec::new(),
        epochs: Vec::new(),
        first_answers: Vec::new(),
        first_test: Vec::new(),
        first_records: 0,
    };
    let mut read = 0usize;
    let mut closes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    loop {
        for _ in 0..OPS_PER_ROUND {
            let op_started = Instant::now();
            {
                let mut splits = [
                    train.as_mut_slice(),
                    valid.as_mut_slice(),
                    test.as_mut_slice(),
                ];
                sim.step(&mut ds, &mut splits, KIND);
            }
            if traced {
                bench.record_since("update_step", 0, op_started, 0, 0);
            }
            out.op_us.push(op_started.elapsed().as_secs_f64() * 1e6);
        }
        let records = ds.len();

        // the retrain closure notes when it returns on the global
        // recorder's clock, which also stamps the program's own
        // `retrain_publish` span right after the swap
        let closed_ns: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let handle = {
            let (ds, train, valid) = (ds.clone(), train.clone(), valid.clone());
            let closed_ns = Arc::clone(&closed_ns);
            svc.tenant.spawn_update(move |m: &mut PartitionedSelNet| {
                let decision = m.check_and_update(&ds, KIND, &train, &valid, &policy());
                *closed_ns.lock().expect("retrain clock poisoned") = Some(global().now_ns());
                decision
            })
        };
        out.slices.open(Instant::now());
        let mut reads_now = 0u64;
        while !handle.is_finished() {
            let req = &reads.requests[read % reads.requests.len()];
            let (generation, model) = svc.tenant.current();
            if let Some((values, us)) = serve_one(svc, req, traced, false, records, checks) {
                // a reply that straddles the swap has no single generation
                // to compare with; every other sampled reply must match
                if (read as u64).is_multiple_of(SAMPLE_EVERY)
                    && svc.tenant.generation() == generation
                {
                    checks.sample(
                        &values,
                        &model.predict_many(req.query(), req.threshold_grid()),
                    );
                }
                out.slices.record(Instant::now(), us, values.len() as u64);
                reads_now += 1;
            }
            read += 1;
        }
        out.slices.shut(Instant::now());
        let (decision, generation) = handle.wait();
        if !decision.retrained() || decision.epochs_run() != RETRAIN_EPOCHS {
            checks.fail(format!(
                "retrain did not run as forced: {}",
                decision.summary()
            ));
        }
        if svc.tenant.generation() != generation {
            checks.fail(format!("generation {generation} was not published"));
        }
        // the retrain's wall time as the program itself clocked it
        match svc
            .tenant
            .swap_log()
            .iter()
            .find(|r| r.generation == generation)
        {
            Some(r) => out.retrain_s.push(r.update_ms / 1e3),
            None => checks.fail(format!("generation {generation} left no swap record")),
        }
        let closed = closed_ns
            .lock()
            .expect("retrain clock poisoned")
            .expect("the retrain closure ran");
        closes.push((generation, closed));
        out.reads_per_retrain.push(reads_now as f64);
        out.epochs.push(decision.epochs_run() as f64);

        // the incrementally maintained labels must still be exact counts
        let oracle = Oracle::new(&ds);
        for q in test.iter().chain(train.iter().step_by(16)) {
            let bad = oracle.mismatches(&q.x, &q.thresholds, &q.selectivities);
            checks.labels(q.thresholds.len() as u64, bad as u64);
        }
        // the untraced pass scores the first retrained generation; the
        // traced pass would score the same generation again
        if !traced && out.first_test.is_empty() {
            out.first_answers = crate::serve_in_process(svc, &test, records, checks);
            out.first_test = test.clone();
            out.first_records = records;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if traced {
        out.publish_ms = publish_ms(&closes, checks);
    }
    eprintln!(
        "update: {} rounds in {:.1} s",
        out.retrain_s.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// Milliseconds from each retrain closure's return to the end of its
/// generation's publish, the latter read from the `retrain_publish` span
/// the program records once the swap is visible.
fn publish_ms(closes: &[(u64, u64)], checks: &mut Checks) -> Vec<f64> {
    let spans = global().snapshot();
    let mut out = Vec::with_capacity(closes.len());
    for &(generation, closed_ns) in closes {
        match spans
            .iter()
            .find(|s| s.kind == "retrain_publish" && s.a == generation)
        {
            Some(s) => {
                let published_ns = s.start_ns + s.dur_ns;
                out.push(published_ns.saturating_sub(closed_ns) as f64 / 1e6);
            }
            None => checks.fail(format!(
                "generation {generation} left no retrain_publish span"
            )),
        }
    }
    out
}

/// Per-layer figures of a traced pass.
pub fn layers(traced: &Pass, values: &mut crate::metrics::Values) {
    let retrain_s = median(&traced.retrain_s);
    let epochs = median(&traced.epochs);
    values.insert("workload.update_us_per_op", median(&traced.op_us));
    values.insert("workload.updates_per_s", updates_per_s(traced));
    values.insert("core.retrain_s", retrain_s);
    values.insert("core.retrain_epochs", epochs);
    values.insert("core.retrain_s_per_epoch", retrain_s / epochs.max(1.0));
    values.insert("serve.publish_ms", median(&traced.publish_ms));
    values.insert(
        "serve.reads_during_retrain",
        median(&traced.reads_per_retrain),
    );
}

/// Update operations applied per second of operation time.
pub fn updates_per_s(pass: &Pass) -> f64 {
    pass.op_us.len() as f64 / (pass.op_us.iter().sum::<f64>() / 1e6).max(1e-12)
}
