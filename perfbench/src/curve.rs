//! `curve`: threshold sweeps in process. One thread calls
//! `Engine::serve_blocking` with one query object and [`SWEEP`] fresh
//! thresholds per request; objects come from a small pool, so most of
//! them recur, while no `(x, ts)` key recurs within the reply cache's
//! reach.

use crate::checks::{Checks, SAMPLE_EVERY};
use crate::oracle::Oracle;
use crate::service::Service;
use crate::setup::{RECORDS, TENANT};
use crate::stats::{median, Slices};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_core::PartitionedSelNet;
use selnet_data::Dataset;
use selnet_obs::next_trace_id;
use selnet_serve::engine::Request;
use std::time::{Duration, Instant};

/// Thresholds per request.
pub const SWEEP: usize = 64;
/// Query objects in the pool.
pub const POOL: usize = 64;
/// Requests in the list (cycled); the list repeats only after 16 times
/// the reply cache's 256 entries.
pub const REQUESTS: usize = 4_096;

/// The request list: `requests[i]` sweeps pool object `objects[i]`.
pub struct CurveList {
    pub requests: Vec<Request>,
    pub objects: Vec<usize>,
}

/// Draws the list: the pool is [`POOL`] fresh objects, entries
/// `skip..skip + POOL` of an order drawn from `pool_seed` (the model
/// seed, so every run serves the same pool). From `seed`, each request
/// picks a pool object and [`SWEEP`] sorted thresholds uniform in
/// `[0, t_top]`, `t_top` being the object's distance at selectivity
/// `|D|/100` (the top of its Appendix B.1 ladder).
pub fn make_list(
    fresh: &Dataset,
    oracle: &Oracle,
    pool_seed: u64,
    skip: usize,
    seed: u64,
) -> CurveList {
    let order = crate::shuffled_prefix(
        fresh.len(),
        skip + POOL,
        &mut StdRng::seed_from_u64(pool_seed ^ 0xc0e7),
    );
    let pool = &order[skip..];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0e7);
    let top_rank = (oracle.len() / 100).max(1);
    let tops: Vec<f32> = pool
        .iter()
        .map(|&o| oracle.ladder_thresholds(fresh.row(o), &[top_rank])[0])
        .collect();
    let mut requests = Vec::with_capacity(REQUESTS);
    let mut objects = Vec::with_capacity(REQUESTS);
    // every run of POOL requests visits each pool object once, in a seeded
    // order, so the mix of cheap and expensive objects is the same for
    // every seed
    let mut round = Vec::new();
    for i in 0..REQUESTS {
        if i % POOL == 0 {
            round = crate::shuffled_prefix(POOL, POOL, &mut rng);
        }
        let p = round[i % POOL];
        let mut ts: Vec<f32> = (0..SWEEP)
            .map(|_| rng.gen_range(0.0..1.0f32) * tops[p])
            .collect();
        ts.sort_unstable_by(f32::total_cmp);
        requests.push(
            Request::new(fresh.row(pool[p]).to_vec())
                .thresholds(ts)
                .model(TENANT),
        );
        objects.push(p);
    }
    CurveList { requests, objects }
}

/// Share of requests whose object already appeared earlier in the list.
pub fn recurring_share(objects: &[usize]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let recurring = objects.iter().filter(|&&o| !seen.insert(o)).count();
    recurring as f64 / objects.len().max(1) as f64
}

/// Serves one request (tagged with a fresh trace ID when `traced`),
/// checks it, and returns the answers with the call's latency. With
/// `verification` it counts as an operation of the verification set.
pub fn serve_one(
    svc: &Service,
    req: &Request,
    traced: bool,
    verification: bool,
    records: usize,
    checks: &mut Checks,
) -> Option<(Vec<f64>, f64)> {
    let traced_req;
    let req = if traced {
        traced_req = req.clone().traced(next_trace_id());
        &traced_req
    } else {
        req
    };
    let started = Instant::now();
    let reply = svc.engine.serve_blocking(req);
    let us = started.elapsed().as_secs_f64() * 1e6;
    match reply {
        Ok(values) if values.len() == req.threshold_grid().len() => {
            checks.request(verification, true);
            checks.reply(&values, records);
            Some((values, us))
        }
        other => {
            checks.request(verification, false);
            eprintln!("curve: request failed: {other:?}");
            None
        }
    }
}

/// Serves the list, round-robin from its start, until `until`.
fn run(
    svc: &Service,
    list: &CurveList,
    until: Instant,
    traced: bool,
    checks: &mut Checks,
) -> Slices {
    let (_, model) = svc.tenant.current();
    let mut out = Slices::new(crate::SLICE_S);
    out.open(Instant::now());
    let mut i = 0usize;
    while Instant::now() < until {
        let req = &list.requests[i % list.requests.len()];
        if let Some((values, us)) = serve_one(svc, req, traced, false, RECORDS, checks) {
            if (i as u64).is_multiple_of(SAMPLE_EVERY) {
                checks.sample(
                    &values,
                    &model.predict_many(req.query(), req.threshold_grid()),
                );
            }
            out.record(Instant::now(), us, values.len() as u64);
        }
        i += 1;
    }
    out.shut(Instant::now());
    out
}

/// One pass: a warm-up, then `seconds` of sweeps.
pub fn pass(
    svc: &Service,
    list: &CurveList,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
) -> Slices {
    run(
        svc,
        list,
        Instant::now() + Duration::from_secs_f64(crate::WARMUP_S),
        traced,
        checks,
    );
    run(
        svc,
        list,
        Instant::now() + Duration::from_secs_f64(seconds),
        traced,
        checks,
    )
}

/// Per-layer figures of a traced pass: direct `predict_many` and
/// indicator costs replayed on the list, and the engine's serving mix.
pub fn layers(
    svc: &Service,
    model: &PartitionedSelNet,
    list: &CurveList,
    traced: &Slices,
    values: &mut crate::metrics::Values,
) {
    let mut out = Vec::new();
    let mut call_us = Vec::with_capacity(list.requests.len());
    for req in &list.requests {
        let started = Instant::now();
        model.predict_many_into(req.query(), req.threshold_grid(), &mut out);
        call_us.push(started.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&out);
    }
    values.insert("core.predict_many_us", median(&call_us));
    let rows: Vec<(&[f32], f32)> = list
        .requests
        .iter()
        .flat_map(|r| r.threshold_grid().iter().map(move |&t| (r.query(), t)))
        .collect();
    let (indicator_us, parts_on) = crate::indicator_per_row(model.partitioning(), &rows);
    values.insert("index.indicator_us_per_row", indicator_us);
    values.insert("index.parts_on_per_row", parts_on);
    let stats = svc.tenant.stats().snapshot();
    let requests = stats.requests.max(1) as f64;
    values.insert(
        "serve.inline_ratio",
        stats.inline_requests as f64 / requests,
    );
    values.insert("serve.cache_hit_ratio", stats.cache_hits as f64 / requests);
    let p50 = median(&traced.all);
    let accounted = median(&call_us);
    eprintln!(
        "curve: the median predict_many call accounts for {accounted:.1} us of the {p50:.1} us \
         median request ({:.0}%); the indicator averages {:.1} us per {SWEEP}-threshold request",
        100.0 * accounted / p50.max(1e-9),
        indicator_us * SWEEP as f64
    );
}
