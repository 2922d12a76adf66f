//! `wave`: point lookups over TCP. One `selnet-client` connection
//! pipelines single-threshold queries in waves of [`WAVE`], two waves in
//! flight; the in-process `serve_tcp` engine coalesces them into
//! `predict_batch` replays.

use crate::checks::{Checks, SAMPLE_EVERY};
use crate::oracle::Oracle;
use crate::service::Service;
use crate::setup::{ladder_ranks, TENANT};
use crate::stats::{median, Slices};
use crate::trace::{timed, BatchLayers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_client::{ClientConfig, Connection, Reply};
use selnet_data::Dataset;
use selnet_obs::{next_trace_id, SpanRecorder};
use selnet_serve::protocol::{Frame, Response};
use selnet_workload::LabeledQuery;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Queries per wave: the engine's batch size.
pub const WAVE: usize = 64;
/// Distinct request objects (fresh mixture draws) in the list.
pub const OBJECTS: usize = 2_048;
/// Rungs of the per-object ladder a threshold is drawn from.
pub const LADDER_RUNGS: usize = 40;

/// The request list: request `i` asks for object `objects[i]` (a row of
/// the fresh draws) at threshold `ts[i]`, a rung of its own ladder.
pub struct WaveList {
    pub objects: Vec<usize>,
    pub ts: Vec<f32>,
}

/// Draws the list from `seed`: [`OBJECTS`] distinct fresh objects in a
/// seeded order, each at a seeded rung of its Appendix B.1 ladder.
pub fn make_list(fresh: &Dataset, oracle: &Oracle, seed: u64) -> WaveList {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7e);
    let objects = crate::shuffled_prefix(fresh.len(), OBJECTS, &mut rng);
    let ranks = ladder_ranks(oracle.len(), LADDER_RUNGS);
    let ts = objects
        .iter()
        .map(|&o| {
            let rung = rng.gen_range(0..ranks.len());
            oracle.ladder_thresholds(fresh.row(o), &ranks[..=rung])[rung]
        })
        .collect();
    WaveList { objects, ts }
}

/// What one timed pass measured.
pub struct Pass {
    pub slices: Slices,
    pub send_us: Vec<f64>,
    pub recv_us: Vec<f64>,
}

/// One request on the wire: when it was sent, its trace ID (0 when
/// untraced) and its index in the request stream.
struct InFlight {
    sent: Instant,
    trace: u64,
    index: usize,
}

/// Keeps two waves in flight: whenever at most one wave is outstanding,
/// the next [`WAVE`] requests of the list (cycled from its start) are
/// sent, so the engine always has a full batch queued behind the one it
/// is replaying. Stops sending at `until`, then drains; records
/// latencies of replies received before `until` when `record` is set.
#[allow(clippy::too_many_arguments)]
fn run_waves(
    conn: &mut Connection,
    svc: &Service,
    fresh: &Dataset,
    list: &WaveList,
    until: Instant,
    record: bool,
    bench: &SpanRecorder,
    checks: &mut Checks,
    pass: &mut Pass,
) {
    let records = crate::setup::RECORDS;
    let (_, model) = svc.tenant.current();
    let traced = bench.is_enabled();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(2 * WAVE);
    let mut next = 0usize;
    if record {
        pass.slices.open(Instant::now());
    }
    loop {
        let sending = Instant::now() < until;
        if sending && inflight.len() <= WAVE {
            for _ in 0..WAVE {
                let i = next % list.ts.len();
                let x = fresh.row(list.objects[i]);
                let t = list.ts[i];
                let trace = if traced { next_trace_id() } else { 0 };
                let sent = Instant::now();
                let (result, us) = if traced {
                    timed(bench, "client_send", trace, || {
                        conn.send_query_traced(trace, Some(TENANT), x, &[t])
                    })
                } else {
                    (conn.send_query(Some(TENANT), x, &[t]), 0.0)
                };
                result.expect("send a query to the loopback server");
                if record && traced {
                    pass.send_us.push(us);
                }
                inflight.push_back(InFlight {
                    sent,
                    trace,
                    index: next,
                });
                next += 1;
            }
        }
        let Some(req) = inflight.pop_front() else {
            break;
        };
        let (reply, us) = timed(bench, "client_recv", req.trace, || conn.recv());
        let done = Instant::now();
        let values = match reply.expect("receive a reply from the loopback server") {
            Reply::Estimates(v) if !traced => v,
            Reply::EstimatesTraced { trace_id, values } if traced && trace_id == req.trace => {
                values
            }
            other => {
                checks.request(false, false);
                eprintln!("wave: unexpected reply {other:?}");
                continue;
            }
        };
        checks.request(false, true);
        checks.reply(&values, records);
        let i = req.index % list.ts.len();
        if (req.index as u64).is_multiple_of(SAMPLE_EVERY) {
            let direct = model.predict_many(fresh.row(list.objects[i]), &[list.ts[i]]);
            checks.sample(&values, &direct);
        }
        if record && sending {
            let latency_us = done.duration_since(req.sent).as_secs_f64() * 1e6;
            pass.slices.record(done, latency_us, 1);
            if traced {
                pass.recv_us.push(us);
            }
        }
    }
    if record {
        pass.slices.shut(until.min(Instant::now()));
    }
}

/// One pass: a warm-up, then `seconds` of waves over a fresh connection.
pub fn pass(
    svc: &Service,
    fresh: &Dataset,
    list: &WaveList,
    seconds: f64,
    bench: &SpanRecorder,
    checks: &mut Checks,
) -> Pass {
    let mut conn = Connection::connect_with(
        svc.addr(),
        &ClientConfig {
            window: 2 * WAVE + 1,
        },
    )
    .expect("connect to the loopback server");
    let mut out = Pass {
        slices: Slices::new(crate::SLICE_S),
        send_us: Vec::new(),
        recv_us: Vec::new(),
    };
    let warm = Instant::now() + Duration::from_secs_f64(crate::WARMUP_S);
    run_waves(
        &mut conn, svc, fresh, list, warm, false, bench, checks, &mut out,
    );
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    run_waves(
        &mut conn, svc, fresh, list, until, true, bench, checks, &mut out,
    );
    out
}

/// Serves every `(x, t)` of `queries` as a single-threshold request over
/// a fresh connection, in waves, each an operation of the verification
/// set; returns the answers per query.
pub fn serve_queries(
    svc: &Service,
    queries: &[LabeledQuery],
    checks: &mut Checks,
) -> Vec<Vec<f64>> {
    let mut conn = Connection::connect_with(svc.addr(), &ClientConfig { window: WAVE + 1 })
        .expect("connect to the loopback server");
    let rows: Vec<(usize, f32)> = queries
        .iter()
        .enumerate()
        .flat_map(|(qi, q)| q.thresholds.iter().map(move |&t| (qi, t)))
        .collect();
    let mut answers: Vec<Vec<f64>> = queries.iter().map(|_| Vec::new()).collect();
    for wave in rows.chunks(WAVE) {
        for &(qi, t) in wave {
            conn.send_query(Some(TENANT), &queries[qi].x, &[t])
                .expect("send a query to the loopback server");
        }
        for &(qi, _) in wave {
            match conn
                .recv()
                .expect("receive a reply from the loopback server")
            {
                Reply::Estimates(v) if v.len() == 1 => {
                    checks.request(true, true);
                    answers[qi].push(v[0]);
                }
                other => {
                    checks.request(true, false);
                    answers[qi].push(f64::NAN);
                    eprintln!("wave: unexpected reply {other:?}");
                }
            }
        }
    }
    answers
}

/// Per-layer figures of a traced pass.
pub fn layers(
    svc: &Service,
    fresh: &Dataset,
    list: &WaveList,
    traced: &Pass,
    values: &mut crate::metrics::Values,
) {
    values.insert("client.send_us", median(&traced.send_us));
    values.insert("client.recv_wait_us", median(&traced.recv_us));
    let batch = BatchLayers::from_spans(&svc.engine.spans());
    // the engine records a request's latency before its batch's `reply`
    // stage stages and wakes the replies, so that stage is taken out too:
    // what is left lies outside the engine
    let engine_p50_us = svc.tenant.stats().latency_histogram().quantile(0.5) as f64;
    let p50 = median(&traced.slices.all);
    values.insert("server.overhead_us", p50 - engine_p50_us - batch.reply_us);
    values.insert("serve.queue_wait_us", batch.queue_wait_us);
    values.insert("serve.batch_rows", batch.batch_rows);
    values.insert("serve.coalesce_us", batch.coalesce_us);
    values.insert("serve.generation_bind_us", batch.generation_bind_us);
    values.insert("serve.reply_us", batch.reply_us);
    values.insert("serve.plan_replay_us_per_row", batch.plan_replay_us_per_row);

    let (_, model) = svc.tenant.current();
    let rows: Vec<(&[f32], f32)> = list
        .objects
        .iter()
        .zip(&list.ts)
        .map(|(&o, &t)| (fresh.row(o), t))
        .collect();
    let (indicator_us, parts_on) = crate::indicator_per_row(model.partitioning(), &rows);
    values.insert("index.indicator_us_per_row", indicator_us);
    values.insert("index.parts_on_per_row", parts_on);
    values.insert(
        "tensor.network_us_per_row",
        batch.plan_replay_us_per_row - indicator_us,
    );

    let (encode_us, decode_us, bytes) = protocol_costs(&rows);
    values.insert("protocol.encode_us", encode_us);
    values.insert("protocol.decode_us", decode_us);
    values.insert("protocol.bytes_per_request", bytes);

    // how much of the median request the layers account for: a request
    // waits for its whole wave, so count the client and codec work of
    // every request in it, the queue wait, the engine stages of every
    // batch the wave was coalesced into, and the replay of all its rows
    let wave = WAVE as f64;
    let batches = wave / batch.batch_rows.max(1.0);
    let accounted = wave
        * (values["client.send_us"]
            + values["client.recv_wait_us"]
            + encode_us
            + decode_us
            + batch.plan_replay_us_per_row)
        + batch.queue_wait_us
        + batches * (batch.coalesce_us + batch.generation_bind_us + batch.reply_us);
    eprintln!(
        "wave: layer times account for {accounted:.1} us of the {p50:.1} us median request ({:.0}%)",
        100.0 * accounted / p50.max(1e-9)
    );
}

/// Median per-request cost of encoding and decoding one traced query
/// frame and its reply with the v2 codec, and the bytes both occupy.
fn protocol_costs(rows: &[(&[f32], f32)]) -> (f64, f64, f64) {
    let frames: Vec<Frame> = rows
        .iter()
        .enumerate()
        .map(|(i, &(x, t))| Frame::QueryTraced {
            trace_id: i as u64 + 1,
            model: Some(TENANT.to_string()),
            x: x.to_vec(),
            ts: vec![t],
        })
        .collect();
    let replies: Vec<Response> = rows
        .iter()
        .enumerate()
        .map(|(i, &(_, t))| Response::EstimatesTraced {
            trace_id: i as u64 + 1,
            values: vec![f64::from(t) * 1e4],
        })
        .collect();
    let n = rows.len() as f64;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..5 {
        let mut buf = Vec::new();
        let started = Instant::now();
        for (f, r) in frames.iter().zip(&replies) {
            f.write_v2(&mut buf).expect("encode into memory");
            r.write_v2(&mut buf).expect("encode into memory");
        }
        encode.push(started.elapsed().as_secs_f64() * 1e6 / n);
        bytes = buf.len();
        let mut reader = buf.as_slice();
        let started = Instant::now();
        for _ in 0..rows.len() {
            let f = Frame::read_v2(&mut reader).expect("decode our own frame");
            let r = Response::read_v2(&mut reader).expect("decode our own reply");
            std::hint::black_box((f, r));
        }
        decode.push(started.elapsed().as_secs_f64() * 1e6 / n);
    }
    (median(&encode), median(&decode), bytes as f64 / n)
}
