//! One whole user session on one workload, through the public API:
//! set-up → closed-loop load → train + checkpoint → open-loop live
//! stream with interleaved forecasts → crash → recover → checks.

use crate::acks::AckTracker;
use crate::spans::{Tracer, IDLE};
use crate::stats::{median, percentile, quiet, summarize, windowed};
use crate::workload::{Fnv, Inputs, Traffic, Workload, BIN_SECS, FORECAST_EVERY, RATE_EPS, SHARDS};
use dbaugur::snapshot::{list_generations, snapshot_path};
use dbaugur::{ClusterTrainReport, DbAugur, DbAugurConfig};
use dbaugur_cluster::Descender;
use dbaugur_dtw::{Distance, DtwDistance};
use dbaugur_shard::ShardedDurable;
use dbaugur_sqlproc::{canonicalize, fingerprint, TemplateId, TemplateRegistry};
use dbaugur_stream::{StreamConfig, StreamFront};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Statements whose next-bin forecast is scored at every bin boundary.
const SCORED: usize = 8;
/// History events per load chunk; `load_eps` is read at the quiet end of
/// the chunk rates.
const LOAD_CHUNK: usize = 4096;
/// Forecast requests per latency window.
const FORECAST_WINDOW: usize = 1000;
/// Training repetitions; `train_s` is the fastest.
const TRAIN_REPS: usize = 3;
/// Recoveries from the crashed state; `recover_s` is the fastest.
const RECOVER_REPS: usize = 3;
/// Set-up repetitions at the start of the session; the last
/// [`LOAD_REPS`] stores are loaded. One more set-up follows every load
/// and every training, and one precedes every recovery; `setup_s` is the
/// median of them all. The host's speed swings over seconds, so
/// set-ups spread over the whole session sample many stretches of it,
/// where back-to-back set-ups sample one.
const SETUP_REPS: usize = 3;
/// Loads, each into one of the last set-up stores; `load_eps` is read at
/// the quiet end of all their chunks.
const LOAD_REPS: usize = 2;

/// The pipeline configuration every workload shares.
fn db_config() -> DbAugurConfig {
    let mut cfg = DbAugurConfig {
        shards: SHARDS,
        interval_secs: BIN_SECS,
        history: 12,
        horizon: 1,
        top_k: 3,
        ..DbAugurConfig::default()
    };
    cfg.epochs = 4;
    cfg.max_examples = 128;
    cfg
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one session measured and checked.
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (complete only when traced).
    pub layers: Vec<Metric>,
    /// `(check, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted: ingest calls, forecast calls and checks.
    pub attempted: u64,
    /// Failed or shed ingest calls, failed forecasts and failed checks.
    pub failed: u64,
    /// Human-readable report lines.
    pub report: String,
    /// The spans recorded (empty when untraced).
    pub tracer: Tracer,
}

struct Books {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
}

impl Books {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.op(ok);
        self.checks.push((name.into(), ok));
    }
}

/// Registry digest over shards: FNV over the sorted
/// `(template, count, last_seen)` rows.
fn registry_digest<'a>(regs: impl IntoIterator<Item = &'a TemplateRegistry>) -> u64 {
    let mut rows: Vec<(&str, usize, u64)> = Vec::new();
    for reg in regs {
        for id in 0..reg.num_templates() {
            let tid = TemplateId(id as u32);
            rows.push((reg.template(tid), reg.count(tid), reg.last_seen(tid)));
        }
    }
    rows.sort_unstable();
    let mut h = Fnv::new();
    for (sql, count, last_seen) in rows {
        h.eat(sql.as_bytes());
        h.eat(&(count as u64).to_le_bytes());
        h.eat(&last_seen.to_le_bytes());
    }
    h.0
}

fn store_digest(store: &ShardedDurable) -> u64 {
    registry_digest((0..store.num_shards()).map(|i| store.shard(i).system().registry()))
}

/// Feed `events` to an in-memory `DbAugur::ingest_record` reference and
/// return its registry digest.
fn reference_digest<'a>(
    reference: &mut DbAugur,
    events: impl IntoIterator<Item = &'a crate::workload::Event>,
) -> u64 {
    for e in events {
        reference.ingest_record(e.ts, &e.sql);
    }
    registry_digest([reference.registry()])
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`).
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hand freed heap pages back to the kernel, as a restarted process
/// would start without them, so memory a dropped store left behind is
/// neither counted nor silently reused by the next one.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's `malloc_trim` only releases free heap memory.
    unsafe {
        malloc_trim(0);
    }
}

/// Start a fresh peak-memory window: release freed memory, reset the
/// process's `VmHWM` to its current RSS, and return that RSS in MiB.
fn reset_peak_rss() -> Option<f64> {
    release_freed_memory();
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    status_mb("VmRSS:")
}

fn snapshot_bytes(store: &ShardedDurable) -> u64 {
    (0..store.num_shards())
        .filter_map(|i| {
            let dir = store.shard(i).dir();
            let gen = *list_generations(dir).ok()?.last()?;
            std::fs::metadata(snapshot_path(dir, gen))
                .ok()
                .map(|m| m.len())
        })
        .sum()
}

/// A forecast request is due this long after the event it follows, half
/// the inter-event gap, so requests and events arrive independently.
const FORECAST_OFFSET: Duration = Duration::from_nanos(500_000_000 / RATE_EPS);

/// Schedule of the live phase: event `i` is due at `i / RATE_EPS`.
fn due(i: usize) -> Duration {
    Duration::from_nanos((i as u128 * 1_000_000_000 / RATE_EPS as u128) as u64)
}

/// Run one session. `root` is an empty directory the store lives in.
pub fn run(workload: Workload, seed: u64, seconds: u64, root: &Path, traced: bool) -> Outcome {
    let mut tr = Tracer::new(traced);
    let mut books = Books {
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
    };
    let mut report = String::new();
    let mut e2e: Vec<Metric> = Vec::new();
    let mut layers: Vec<Metric> = Vec::new();
    let push = |v: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str| {
        v.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    let cfg = db_config();
    let live_n = (RATE_EPS * seconds) as usize;

    // 1. Set-up: generate the inputs, open the empty store, route every
    //    live event (this also warms the canonicalizer). Repeated here
    //    and between the later steps (`SetUps::interleave`); the median
    //    is reported and the inputs must repeat byte for byte. The last
    //    LOAD_REPS repetitions' stores are loaded below.
    let mut setups = SetUps {
        workload,
        seed,
        live_n,
        cfg: cfg.clone(),
        secs: Vec::new(),
        digests: Vec::new(),
        extra: 0,
        peak_mb: None,
    };
    let mut stores: Vec<ShardedDurable> = Vec::new();
    let mut first: Option<SetUp> = None;
    for rep in 0..SETUP_REPS {
        let s = match setups.run(&root.join(format!("store-{rep}")), &mut tr) {
            Ok(s) => s,
            Err(e) => {
                books.check(format!("open empty store: {e}"), false);
                return finish(e2e, layers, books, report, tr);
            }
        };
        if first.is_none() {
            first = Some(s);
        } else {
            stores.push(s.store);
        }
    }
    let SetUp {
        inputs,
        store,
        routes,
        route_time,
        ..
    } = first.expect("at least one set-up repetition");
    stores.insert(0, store);

    let traffic = inputs.traffic();
    write_traffic(&mut report, workload, seed, &traffic, &routes);

    // The memory window: from here to the end of recovery, paused
    // around each set-up between the steps. What the session holds at
    // its start (the generated inputs, the empty stores) is the
    // baseline; correctness references are built after the window
    // closes.
    let rss_base = reset_peak_rss();

    // 2. Load: the history log back-to-back through the front door,
    //    ending at the flush barrier, once into each of the last
    //    LOAD_REPS set-up stores. Each store is closed and removed before
    //    the next load starts; the last one lives on.
    let scfg = StreamConfig::from_db(&cfg);
    let mut ingest_ns: Vec<f64> = Vec::new();
    let mut flush_us: Vec<f64> = Vec::new();
    let mut load_eps = Vec::new();
    let mut front: Option<StreamFront> = None;
    let unloaded = stores.len().saturating_sub(LOAD_REPS);
    for (i, store) in stores.into_iter().enumerate() {
        if i < unloaded {
            let dir = store.root().to_path_buf();
            drop(store);
            std::fs::remove_dir_all(dir).ok();
            continue;
        }
        if let Some(old) = front.take() {
            let old_root = old.store().root().to_path_buf();
            drop(old);
            std::fs::remove_dir_all(old_root).ok();
            release_freed_memory();
        }
        let mut f = StreamFront::new(store, scfg.clone());
        let ph = tr.begin("phase.load", 0);
        load_eps.extend(load(
            &mut f,
            &inputs.history,
            &mut tr,
            &mut books,
            &mut ingest_ns,
            &mut flush_us,
        ));
        tr.end(ph);
        books.check(
            "every history event acked at the barrier",
            wal_records(&f) == inputs.history.len() as u64 && f.unacked() == 0,
        );
        front = Some(f);
        setups.interleave(root, &mut tr, &mut books);
    }
    let mut front = front.expect("at least one set-up store");
    push(
        &mut e2e,
        "load_eps",
        quiet(&mut load_eps.clone(), true).unwrap_or(f64::NAN),
        "events/s",
    );
    let load_digest = store_digest(front.store());

    // 3. Train every shard over the loaded span, then checkpoint.
    let hist_end = inputs.history_end();
    //    Training is deterministic, so repeating it rebuilds the same
    //    models; `train_s` is the fastest.
    let mut train_reports: Vec<ClusterTrainReport> = Vec::new();
    let mut train_times = Vec::new();
    for _ in 0..TRAIN_REPS {
        train_reports.clear();
        let ph = tr.begin("phase.train", 0);
        let t = Instant::now();
        for i in 0..SHARDS {
            let sp = tr.begin("core.pipeline.train", i as u64);
            let res = front
                .store_mut()
                .shard_mut(i)
                .system_mut()
                .train(0, hist_end);
            tr.end(sp);
            books.op(res.is_ok());
            if let Ok(r) = res {
                train_reports.push(r);
            }
        }
        train_times.push(t.elapsed().as_secs_f64());
        tr.end(ph);
        setups.interleave(root, &mut tr, &mut books);
    }
    let train_s = quiet(&mut train_times.clone(), false).unwrap_or(f64::NAN);
    push(&mut e2e, "train_s", train_s, "s");
    let t = Instant::now();
    let sp = tr.begin("core.snapshot.checkpoint", 0);
    let ckpt = front.store_mut().checkpoint_all();
    tr.end(sp);
    let checkpoint_s = t.elapsed().as_secs_f64();
    books.op(ckpt.is_ok());
    let snap_bytes = snapshot_bytes(front.store());
    // The scored statements: the heaviest templates the trained system
    // answers. Training is deterministic, so the choice is too.
    let scored: Vec<(u32, String)> = inputs
        .candidates
        .iter()
        .filter(|(_, sql)| front.store().forecast(sql).is_some())
        .take(SCORED)
        .cloned()
        .collect();

    // 4. Live: open loop at RATE_EPS with forecasts interleaved; bins
    //    close (maintain) once every event before their end is acked, so
    //    the model feedback, and with it forecast quality, is the same
    //    on every run of a seed.
    let live = &inputs.live;
    let complete_end = inputs.live_complete_end();
    let mut tracker = AckTracker::new(front.store());
    let _ = front.maintain(hist_end);
    let mut acked: Vec<bool> = vec![false; live.len()];
    // Latency per live event (by id) and per forecast request.
    let mut ack_us: Vec<f64> = vec![f64::NAN; live.len()];
    // Forecast latency is the call itself; the wait from the request's
    // due time is mostly the fsync it queued behind (reported per layer).
    let mut fc_us: Vec<f64> = Vec::with_capacity(inputs.forecasts.len());
    let mut fc_wait_us: Vec<f64> = Vec::with_capacity(inputs.forecasts.len());
    let mut late_us: Vec<f64> = Vec::with_capacity(live.len());
    let mut answered = 0usize;
    let mut scorer = Scorer {
        scored,
        pending: VecDeque::new(),
        scores: Vec::new(),
    };
    let mut newly: Vec<usize> = Vec::new();
    let mut idle = Duration::ZERO;
    let mut next_bin_end = hist_end + BIN_SECS;
    let mut consistent = true;
    let mut next_ev = 0usize;
    let mut next_fc = 0usize;
    let delay = Duration::from_micros(scfg.group_commit.max_delay_us);
    let mut submitted_at: Vec<Duration> = vec![Duration::ZERO; live.len()];
    let ph = tr.begin("phase.live", 0);
    let t0 = Instant::now();
    let mut stalls = Stalls {
        t0,
        calls: Vec::new(),
    };
    let live_wall;
    loop {
        // Which op is next: the forecast riding on the event just sent,
        // or the next event.
        let fc_due = next_fc < inputs.forecasts.len() && next_ev == (next_fc + 1) * FORECAST_EVERY;
        if !fc_due && next_ev == live.len() {
            live_wall = t0.elapsed();
            break;
        }
        let due_at = if fc_due {
            due(next_ev - 1) + FORECAST_OFFSET
        } else {
            due(next_ev)
        };
        let now = t0.elapsed();
        // When the oldest buffered record on any shard reaches the
        // group-commit delay, a poll flushes it.
        let poll_at = (0..tracker.shards())
            .filter_map(|s| tracker.oldest(s).map(|id| submitted_at[id] + delay))
            .min();
        let mut acked_by: Option<(Duration, Duration)> = None;
        if now < due_at {
            if poll_at.is_some_and(|p| now >= p) {
                let c0 = t0.elapsed();
                let polled = front.poll(c0.as_micros() as u64);
                let at = t0.elapsed();
                tr.record("stream.poll", (at - c0).as_nanos() as u64, 0);
                if polled.is_err() {
                    books.op(false);
                }
                acked_by = Some((c0, at));
            } else if scorer.step(&front, &mut tr, &mut stalls) {
                continue;
            } else {
                let wake = poll_at.map_or(due_at, |p| p.min(due_at));
                let sp = tr.begin(IDLE, 0);
                while t0.elapsed() < wake {
                    std::hint::spin_loop();
                }
                tr.end(sp);
                idle += t0.elapsed() - now;
                continue;
            }
        } else {
            late_us.push(ns(now - due_at) / 1e3);
            if fc_due {
                let sql = &live[inputs.forecasts[next_fc]].sql;
                let sp = tr.begin("shard.forecast", (live.len() + next_fc) as u64);
                let c0 = Instant::now();
                let f = stalls.time(Stall::Forecast, || front.store().forecast(sql));
                fc_us.push(ns(c0.elapsed()) / 1e3);
                tr.end(sp);
                fc_wait_us.push(ns(t0.elapsed().saturating_sub(due_at)) / 1e3);
                books.op(f.is_none_or(f64::is_finite));
                answered += usize::from(f.is_some());
                next_fc += 1;
            } else {
                let e = &live[next_ev];
                let sp = tr.begin("stream.ingest_event", next_ev as u64);
                let submit = t0.elapsed();
                let res = front.ingest_event(submit.as_micros() as u64, e.ts, &e.sql);
                let at = t0.elapsed();
                tr.end(sp);
                let admitted = matches!(res, Ok(d) if d.is_admitted());
                books.op(admitted);
                if admitted {
                    submitted_at[next_ev] = submit;
                    tracker.submitted(routes[next_ev] as usize, next_ev);
                }
                next_ev += 1;
                acked_by = Some((submit, at));
            }
        }
        // `(start, end)` of an ingest or poll call: the records it acked
        // became durable inside it.
        if let Some((start, at)) = acked_by {
            newly.clear();
            consistent &= tracker.collect(front.store(), &mut newly);
            if newly.is_empty() {
                if traced {
                    ingest_ns.push(ns(at - start));
                }
            } else {
                stalls.calls.push((start, at, Stall::Flush));
                if traced {
                    flush_us.push(ns(at - start) / 1e3);
                }
            }
            for &id in &newly {
                acked[id] = true;
                ack_us[id] = ns(at.saturating_sub(due(id))) / 1e3;
            }
            close_ready_bins(
                &mut front,
                &mut tr,
                &tracker,
                &inputs,
                &mut scorer,
                next_ev,
                complete_end,
                &mut next_bin_end,
                &mut stalls,
            );
        }
    }
    scorer.drain(&front, &mut tr, &mut stalls);
    tr.end(ph);
    books.check(
        "ack attribution stayed consistent with the WAL counters",
        consistent,
    );

    // Timings are read per window and at the quiet end over windows
    // (`stats::windowed`), so a stretch of host noise moves some windows,
    // not the figure. Ack windows are the live log's bins: each holds
    // one bin close, the stall every bin brings.
    let mut ack_windows: Vec<Vec<f64>> = Vec::new();
    let mut bin = None;
    for (e, &v) in live.iter().zip(&ack_us) {
        if bin != Some(e.ts / BIN_SECS) {
            bin = Some(e.ts / BIN_SECS);
            ack_windows.push(Vec::new());
        }
        if let (false, Some(w)) = (v.is_nan(), ack_windows.last_mut()) {
            w.push(v);
        }
    }
    let fc_windows: Vec<Vec<f64>> = fc_us.chunks(FORECAST_WINDOW).map(<[f64]>::to_vec).collect();
    for (name, windows, q) in [
        ("ack_p50_us", &ack_windows, 0.5),
        ("ack_p99_us", &ack_windows, 0.99),
        ("forecast_p50_us", &fc_windows, 0.5),
        ("forecast_p99_us", &fc_windows, 0.99),
    ] {
        let (value, used) = windowed(windows.iter().cloned(), q).unwrap_or((f64::NAN, 0));
        let _ = writeln!(report, "  {name}: quiet end over {used} windows");
        push(&mut e2e, name, value, "us");
    }
    // What the slowest acks waited on: of the summed due → ack time of
    // every event at or above the run's p99, the share spent inside
    // each kind of stalling call.
    let mut acked_us: Vec<f64> = ack_us.iter().copied().filter(|v| !v.is_nan()).collect();
    let ack_p99_run = percentile(&mut acked_us, 0.99).unwrap_or(f64::INFINITY);
    let tail: Vec<(Duration, Duration)> = ack_us
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v >= ack_p99_run)
        .map(|(i, &v)| (due(i), due(i) + Duration::from_nanos((v * 1e3) as u64)))
        .collect();
    let tail_share =
        [Stall::Flush, Stall::Maintain, Stall::Forecast].map(|k| stalls.share(&tail, k));
    let ack_sum = summarize(&mut acked_us);
    let fc_sum = summarize(&mut fc_us.clone());
    let fc_wait_sum = summarize(&mut fc_wait_us.clone());
    let issued = inputs.forecasts.len();
    push(
        &mut e2e,
        "forecast_coverage",
        answered as f64 / issued.max(1) as f64,
        "ratio",
    );
    let smape = score(&inputs, &scorer.scores);
    books.check(
        format!(
            "bin-boundary forecasts of {} statements were scored",
            scorer.scored.len()
        ),
        smape.is_some(),
    );
    push(
        &mut e2e,
        "forecast_smape",
        smape.unwrap_or(f64::NAN),
        "ratio",
    );

    let stream_stats = front.stats();
    let live_wal_bytes: u64 = (0..SHARDS)
        .map(|i| front.store().shard(i).wal_len_bytes().unwrap_or(0))
        .sum();
    let durability: Vec<dbaugur::DurabilityCounters> =
        (0..SHARDS).map(|i| front.store().durability(i)).collect();
    let registry_bytes: usize = (0..SHARDS)
        .map(|i| front.store().shard(i).system().registry_bytes())
        .sum();
    let templates: usize = (0..SHARDS)
        .map(|i| front.store().shard(i).system().num_templates())
        .sum();
    let (tc_hits, tc_misses) = (0..SHARDS).fold((0u64, 0u64), |(h, m), i| {
        let reg = front.store().shard(i).system().registry();
        (
            h + reg.template_cache_hits(),
            m + reg.template_cache_misses(),
        )
    });
    let unacked = tracker.pending();
    let acked_live = acked.iter().filter(|&&a| a).count();

    // 5. Crash: drop the front without a flush; buffered records die.
    drop(front);

    // 6. Recover and answer a forecast, several times over the same
    //    crashed state (reopening replays the same WAL).
    let mut recover_s = Vec::new();
    let mut recovered = None;
    for _ in 0..RECOVER_REPS {
        drop(recovered.take());
        setups.interleave(root, &mut tr, &mut books);
        release_freed_memory();
        let ph = tr.begin("phase.recover", 0);
        let t = Instant::now();
        let sp = tr.begin("shard.open", 0);
        let reopened =
            ShardedDurable::open(&root.join(format!("store-{}", SETUP_REPS - 1)), cfg.clone());
        tr.end(sp);
        let Ok(store) = reopened else {
            tr.end(ph);
            books.check("reopen after crash", false);
            return finish(e2e, layers, books, report, tr);
        };
        let mut first = None;
        for (i, (_, sql)) in scorer.scored.iter().enumerate() {
            let sp = tr.begin("shard.forecast", i as u64);
            let f = store.forecast(sql);
            tr.end(sp);
            if f.is_some() {
                first = f;
                break;
            }
        }
        recover_s.push(t.elapsed().as_secs_f64());
        tr.end(ph);
        recovered = Some((store, first));
    }
    let (store, first) = recovered.expect("at least one recovery");
    push(
        &mut e2e,
        "recover_s",
        quiet(&mut recover_s, false).unwrap_or(f64::NAN),
        "s",
    );
    // The memory window closes.
    let peak_mb = setups.window_peak();
    push(&mut e2e, "peak_rss_mb", peak_mb.unwrap_or(f64::NAN), "MiB");
    let _ = writeln!(
        report,
        "  memory: {:.1} MiB resident at the window's start (inputs, empty stores), peak {:.1} MiB",
        rss_base.unwrap_or(f64::NAN),
        peak_mb.unwrap_or(f64::NAN)
    );
    books.check(
        "a forecast is answered after recovery",
        first.is_some_and(f64::is_finite),
    );
    books.check(
        "every scored statement is answered after recovery",
        scorer
            .scored
            .iter()
            .all(|(_, sql)| store.forecast(sql).is_some_and(f64::is_finite)),
    );
    let replayed: usize = store.recovery_reports().iter().map(|r| r.wal_applied).sum();
    books.check(
        format!("replayed records ({replayed}) equal acked live records ({acked_live})"),
        replayed == acked_live,
    );
    // The reference sees the history, then the acked live events.
    let mut reference = DbAugur::new(db_config());
    books.check(
        "streamed registry equals DbAugur::ingest_record reference after load",
        load_digest == reference_digest(&mut reference, &inputs.history),
    );
    if workload == Workload::SkeletonChurn {
        let bus = Inputs::generate(Workload::Bus, seed, live_n);
        books.check(
            "skeleton_churn registry equals bus registry on the same seed",
            load_digest == reference_digest(&mut DbAugur::new(db_config()), &bus.history),
        );
    }
    let acked_events = live.iter().zip(&acked).filter(|(_, &a)| a).map(|(e, _)| e);
    books.check(
        "recovered registry equals the reference over acked events only",
        store_digest(&store) == reference_digest(&mut reference, acked_events),
    );

    let _ = writeln!(
        report,
        "  live: {} events, {} acked, {} unacked at the crash, {} forecasts ({} answered), {} bins closed",
        live.len(), acked_live, unacked, issued, answered, stream_stats.bins_closed
    );
    let _ = writeln!(report, "  ack latency:      {}", ack_sum.describe("us"));
    let _ = writeln!(report, "  forecast latency: {}", fc_sum.describe("us"));
    let _ = writeln!(
        report,
        "  forecast from due: {}",
        fc_wait_sum.describe("us")
    );

    // Per-layer figures.
    let mut layer =
        |name: &str, value: f64, unit: &'static str| push(&mut layers, name, value, unit);
    // A run too short for 10 samples beyond a quantile reports the
    // highest percentile that has them.
    let pct = |v: &[f64], q: f64| {
        let mut v = v.to_vec();
        percentile(&mut v, q).or_else(|| summarize(&mut v).tail.map(|(_, t)| t))
    };
    layer(
        "stream.ingest_ns.p50",
        median(&mut ingest_ns.clone()).unwrap_or(f64::NAN),
        "ns",
    );
    layer(
        "stream.ingest_ns.p99",
        pct(&ingest_ns, 0.99).unwrap_or(f64::NAN),
        "ns",
    );
    layer(
        "stream.flush_us.p50",
        median(&mut flush_us.clone()).unwrap_or(f64::NAN),
        "us",
    );
    layer(
        "stream.flush_us.p99",
        pct(&flush_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    let route_total = stream_stats.route_cache_hits + stream_stats.route_cache_misses;
    layer(
        "sqlproc.route_cache_hit_ratio",
        stream_stats.route_cache_hits as f64 / route_total.max(1) as f64,
        "ratio",
    );
    layer(
        "sqlproc.template_cache_hit_ratio",
        tc_hits as f64 / (tc_hits + tc_misses).max(1) as f64,
        "ratio",
    );
    let mut total = dbaugur::DurabilityCounters::default();
    for d in &durability {
        total.absorb(d);
    }
    let flushes = total.wal_group_flushes_coalesced + total.wal_group_flushes_forced;
    layer("core.wal.flushes", flushes as f64, "count");
    layer(
        "core.wal.records_per_fsync",
        total.wal_group_records as f64 / flushes.max(1) as f64,
        "records",
    );
    layer(
        "core.wal.bytes_per_event",
        live_wal_bytes as f64 / acked_live.max(1) as f64,
        "bytes",
    );
    layer("core.wal.io_retries", total.io_retries as f64, "count");
    let maintain_ms = stalls.durations_ms(Stall::Maintain);
    let maintain_total: f64 = maintain_ms.iter().sum();
    layer(
        "stream.maintain_ms.p50",
        median(&mut maintain_ms.clone()).unwrap_or(f64::NAN),
        "ms",
    );
    layer(
        "stream.maintain_ms.max",
        maintain_ms.iter().copied().fold(f64::NAN, f64::max),
        "ms",
    );
    layer("stream.maintain_ms.total", maintain_total, "ms");
    layer(
        "stream.bins_closed",
        stream_stats.bins_closed as f64,
        "count",
    );
    layer(
        "stream.cluster_points",
        stream_stats.cluster_points as f64,
        "count",
    );
    layer(
        "stream.cluster_folds",
        stream_stats.cluster_folds as f64,
        "count",
    );
    layer(
        "stream.cluster_merges",
        stream_stats.cluster_merges as f64,
        "count",
    );
    layer(
        "stream.feedback_observations",
        stream_stats.feedback_observations as f64,
        "count",
    );
    let wall = live_wall.as_secs_f64();
    layer(
        "stream.busy_frac",
        1.0 - idle.as_secs_f64() / wall.max(1e-9),
        "ratio",
    );
    layer(
        "stream.gen_late_p99_us",
        pct(&late_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    for (name, share) in [
        "stream.ack_tail_flush_share",
        "stream.ack_tail_maintain_share",
        "stream.ack_tail_forecast_share",
    ]
    .into_iter()
    .zip(tail_share)
    {
        layer(name, share, "ratio");
    }
    let _ = writeln!(
        report,
        "  ack tail (>= p99 {ack_p99_run:.0} us): {:.1}% of its wait in fsync flushes, {:.1}% in bin closes, {:.1}% in forecasts",
        tail_share[0] * 100.0,
        tail_share[1] * 100.0,
        tail_share[2] * 100.0
    );
    layer(
        "stream.forecast_wait_p99_us",
        pct(&fc_wait_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    let (mut healthy, mut degraded, mut failed_clusters) = (0, 0, 0);
    let (mut queued, mut executed, mut stolen) = (0, 0, 0);
    for r in &train_reports {
        healthy += r.healthy_count();
        degraded += r.degraded_count();
        failed_clusters += r.failed_count();
        queued += r.exec.queued;
        executed += r.exec.executed;
        stolen += r.exec.stolen;
    }
    layer("models.clusters_healthy", healthy as f64, "count");
    layer("models.clusters_degraded", degraded as f64, "count");
    layer("models.clusters_failed", failed_clusters as f64, "count");
    layer("exec.queued", queued as f64, "count");
    layer("exec.executed", executed as f64, "count");
    layer("exec.stolen", stolen as f64, "count");
    layer("core.snapshot.checkpoint_s", checkpoint_s, "s");
    layer("core.snapshot.bytes", snap_bytes as f64, "bytes");
    layer("core.recover.replayed", replayed as f64, "records");
    let open_s = tr
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "shard.open")
        .map(|s| (s.end - s.start) as f64 / 1e9);
    layer(
        "core.recover.replay_eps",
        open_s.map_or(f64::NAN, |s| replayed as f64 / s),
        "records/s",
    );
    layer("sqlproc.templates", templates as f64, "count");
    layer("sqlproc.registry_bytes", registry_bytes as f64, "bytes");
    layer(
        "shard.route_ns",
        ns(route_time) / live.len().max(1) as f64,
        "ns",
    );

    if traced {
        // Sub-phase timings: the public entry points each phase uses,
        // called again on that phase's own inputs.
        let ph = tr.begin("phase.attribution", 0);
        let sqls: Vec<&str> = live.iter().map(|e| e.sql.as_str()).collect();
        let per_call = |tr: &mut Tracer, name: &'static str, f: &dyn Fn(&str) -> u64| {
            let t = Instant::now();
            let mut acc = 0u64;
            for s in &sqls {
                acc = acc.wrapping_add(f(black_box(s)));
            }
            black_box(acc);
            tr.record(name, t.elapsed().as_nanos() as u64, 0);
            ns(t.elapsed()) / sqls.len().max(1) as f64
        };
        let fp = per_call(&mut tr, "sqlproc.fingerprint", &|s| fingerprint(s));
        let canon = per_call(&mut tr, "sqlproc.canonicalize", &|s| {
            canonicalize(s).len() as u64
        });
        layer("sqlproc.fingerprint_ns", fp, "ns");
        layer("sqlproc.canonicalize_ns", canon, "ns");
        let fc_sqls: Vec<&str> = inputs
            .forecasts
            .iter()
            .map(|&j| live[j].sql.as_str())
            .collect();
        let t = Instant::now();
        let mut hits = 0usize;
        for s in &fc_sqls {
            let reg = store.shard(store.route(s)).system().registry();
            hits += usize::from(black_box(reg.lookup(s)).is_some());
        }
        black_box(hits);
        let lookup_total = t.elapsed();
        tr.record("sqlproc.lookup", lookup_total.as_nanos() as u64, 0);
        // Route is part of the loop above; remove its share.
        layer(
            "sqlproc.lookup_ns",
            (ns(lookup_total) / fc_sqls.len().max(1) as f64
                - ns(route_time) / live.len().max(1) as f64)
                .max(0.0),
            "ns",
        );
        let mut predict = Vec::new();
        for i in 0..SHARDS {
            let sys = store.shard(i).system();
            for c in 0..sys.clusters().len() {
                for _ in 0..16 {
                    let t = Instant::now();
                    black_box(sys.forecast_cluster(c));
                    predict.push(ns(t.elapsed()) / 1e3);
                }
            }
        }
        tr.record(
            "models.predict",
            (predict.iter().sum::<f64>() * 1e3) as u64,
            0,
        );
        layer(
            "models.predict_us",
            median(&mut predict).unwrap_or(f64::NAN),
            "us",
        );
        let (mut traces_s, mut descender_s, mut clusters, mut dtw) = (0.0, 0.0, 0usize, Vec::new());
        for i in 0..SHARDS {
            let sys = store.shard(i).system();
            let t = Instant::now();
            let traces = sys.registry().arrival_traces(0, hist_end, BIN_SECS);
            traces_s += t.elapsed().as_secs_f64();
            tr.record(
                "core.pipeline.arrival_traces",
                t.elapsed().as_nanos() as u64,
                i as u64,
            );
            let t = Instant::now();
            let clustering = Descender::new(cfg.clustering, DtwDistance::new(cfg.dtw_window))
                .cluster(traces.traces());
            descender_s += t.elapsed().as_secs_f64();
            tr.record("cluster.descender", t.elapsed().as_nanos() as u64, i as u64);
            clusters += clustering.num_clusters;
            let metric = DtwDistance::new(cfg.dtw_window);
            let sample: Vec<&[f64]> = traces
                .traces()
                .iter()
                .take(32)
                .map(|t| t.values())
                .collect();
            let t = Instant::now();
            let mut pairs = 0usize;
            for a in 0..sample.len() {
                for b in (a + 1)..sample.len() {
                    black_box(metric.dist(sample[a], sample[b]));
                    pairs += 1;
                }
            }
            tr.record("dtw.distance", t.elapsed().as_nanos() as u64, i as u64);
            if pairs > 0 {
                dtw.push(ns(t.elapsed()) / pairs as f64);
            }
        }
        tr.end(ph);
        layer("core.pipeline.arrival_traces_s", traces_s, "s");
        layer("cluster.descender_s", descender_s, "s");
        layer("cluster.clusters", clusters as f64, "count");
        layer(
            "dtw.distance_ns",
            median(&mut dtw).unwrap_or(f64::NAN),
            "ns",
        );
        layer(
            "models.fit_s",
            (train_s - traces_s - descender_s).max(0.0),
            "s",
        );
    }

    let _ = writeln!(
        report,
        "  checkpoint {checkpoint_s:.3} s ({snap_bytes} bytes), replayed {replayed} records, \
         {templates} templates, registry {registry_bytes} bytes"
    );
    let root_dir: PathBuf = store.root().to_path_buf();
    drop(store);
    drop(reference);
    std::fs::remove_dir_all(root_dir).ok();

    books.check(
        format!(
            "inputs repeat byte for byte across {} set-ups",
            setups.digests.len()
        ),
        setups.digests.windows(2).all(|w| w[0] == w[1]),
    );
    let in_order: Vec<String> = setups.secs.iter().map(|v| format!("{v:.4}")).collect();
    let setup_median = median(&mut setups.secs).unwrap_or(f64::NAN);
    let _ = writeln!(
        report,
        "  set-up: median {setup_median:.4} s of {}, in order {} s",
        in_order.len(),
        in_order.join(" ")
    );
    push(&mut e2e, "setup_s", setup_median, "s");
    finish(e2e, layers, books, report, tr)
}

/// The session's set-ups: their wall times and input digests, and the
/// peak-memory window they pause.
struct SetUps {
    workload: Workload,
    seed: u64,
    live_n: usize,
    cfg: DbAugurConfig,
    secs: Vec<f64>,
    digests: Vec<u64>,
    /// Set-ups run between the session's steps so far.
    extra: usize,
    /// Highest `VmHWM` the memory window reached before a set-up paused
    /// it.
    peak_mb: Option<f64>,
}

impl SetUps {
    /// One set-up into `dir`, timed and digested.
    fn run(&mut self, dir: &Path, tr: &mut Tracer) -> Result<SetUp, String> {
        let s = set_up(self.workload, self.seed, self.live_n, dir, &self.cfg, tr)?;
        self.secs.push(s.secs);
        self.digests.push(s.inputs.digest());
        Ok(s)
    }

    /// One set-up between two steps of the session, into a fresh
    /// directory that is removed at once. It pauses the peak-memory
    /// window: the peak so far is kept, and the window reopens after the
    /// set-up's memory is freed, so the set-up's copy is not counted. It
    /// runs on a thread of its own, so its allocations come from a malloc
    /// arena other than the session's and, once freed and trimmed, leave
    /// the session's heap as they found it.
    fn interleave(&mut self, root: &Path, tr: &mut Tracer, books: &mut Books) {
        self.peak_mb = self.window_peak();
        let dir = root.join(format!("store-extra-{}", self.extra));
        self.extra += 1;
        let res = std::thread::scope(|scope| {
            scope
                .spawn(|| self.run(&dir, tr).map(drop))
                .join()
                .unwrap_or_else(|_| Err("set-up thread panicked".into()))
        });
        if let Err(e) = res {
            books.check(format!("open empty store: {e}"), false);
        }
        std::fs::remove_dir_all(dir).ok();
        reset_peak_rss();
    }

    /// Peak resident memory of the window so far, in MiB.
    fn window_peak(&self) -> Option<f64> {
        match (self.peak_mb, status_mb("VmHWM:")) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }
}

/// One set-up's products and its wall time.
struct SetUp {
    inputs: Inputs,
    store: ShardedDurable,
    routes: Vec<u8>,
    route_time: Duration,
    secs: f64,
}

/// One set-up: generate the inputs, open an empty store in `dir`, route
/// every live event (this also warms the canonicalizer).
fn set_up(
    workload: Workload,
    seed: u64,
    live_n: usize,
    dir: &Path,
    cfg: &DbAugurConfig,
    tr: &mut Tracer,
) -> Result<SetUp, String> {
    let t = Instant::now();
    let ph = tr.begin("phase.setup", 0);
    let inputs = Inputs::generate(workload, seed, live_n);
    let sp = tr.begin("shard.open", 0);
    let opened = ShardedDurable::open(dir, cfg.clone());
    tr.end(sp);
    let store = match opened {
        Ok(s) => s,
        Err(e) => {
            tr.end(ph);
            return Err(e.to_string());
        }
    };
    let r0 = Instant::now();
    let sp = tr.begin("shard.route", 0);
    let routes: Vec<u8> = inputs
        .live
        .iter()
        .map(|e| store.route(&e.sql) as u8)
        .collect();
    tr.end(sp);
    let route_time = r0.elapsed();
    tr.end(ph);
    Ok(SetUp {
        inputs,
        store,
        routes,
        route_time,
        secs: t.elapsed().as_secs_f64(),
    })
}

/// Acked WAL records over every shard.
fn wal_records(front: &StreamFront) -> u64 {
    (0..SHARDS)
        .map(|i| front.store().durability(i).wal_group_records)
        .sum()
}

/// Push `history` back-to-back through `front` and barrier-flush it;
/// returns the acked events per second of every chunk of [`LOAD_CHUNK`]
/// events (the last chunk ends at the barrier). Traced, every call's time is kept: calls that
/// flushed in `flush_us`, the rest in `ingest_ns`.
fn load(
    front: &mut StreamFront,
    history: &[crate::workload::Event],
    tr: &mut Tracer,
    books: &mut Books,
    ingest_ns: &mut Vec<f64>,
    flush_us: &mut Vec<f64>,
) -> Vec<f64> {
    let traced = tr.on();
    let t0 = Instant::now();
    let mut chunk_eps: Vec<f64> = Vec::new();
    let mut chunk_start = (Duration::ZERO, 0u64);
    let mut close_chunk = |front: &StreamFront, chunk_eps: &mut Vec<f64>| {
        let (at, acked) = (t0.elapsed(), wal_records(front));
        chunk_eps.push((acked - chunk_start.1) as f64 / (at - chunk_start.0).as_secs_f64());
        chunk_start = (at, acked);
    };
    for (i, e) in history.iter().enumerate() {
        if i > 0 && i % LOAD_CHUNK == 0 {
            close_chunk(front, &mut chunk_eps);
        }
        let before = if traced { wal_records(front) } else { 0 };
        let sp = tr.begin("stream.ingest_event", i as u64);
        let c0 = Instant::now();
        let res = front.ingest_event(t0.elapsed().as_micros() as u64, e.ts, &e.sql);
        let took = c0.elapsed();
        tr.end(sp);
        books.op(matches!(res, Ok(d) if d.is_admitted()));
        if traced {
            if wal_records(front) > before {
                flush_us.push(ns(took) / 1e3);
            } else {
                ingest_ns.push(ns(took));
            }
        }
    }
    let sp = tr.begin("stream.flush", 0);
    let barrier = front.flush();
    tr.end(sp);
    books.op(barrier.is_ok());
    close_chunk(front, &mut chunk_eps);
    chunk_eps
}

fn finish(
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    books: Books,
    report: String,
    tracer: Tracer,
) -> Outcome {
    Outcome {
        e2e,
        layers,
        checks: books.checks,
        attempted: books.attempted,
        failed: books.failed,
        report,
        tracer,
    }
}

fn write_traffic(out: &mut String, w: Workload, seed: u64, t: &Traffic, routes: &[u8]) {
    let on0 = routes.iter().filter(|&&r| r == 0).count();
    let _ = writeln!(
        out,
        "workload {} seed {seed}: {} history + {} live events, {} templates, {} distinct fingerprints \
         (caches hold {}), {:.1} events per history bin, {} live bins, live split {:.3}/{:.3} over 2 shards, \
         {} forecasts (1 per {} events)",
        w.name(),
        t.history_events,
        t.live_events,
        t.templates,
        t.fingerprints,
        crate::workload::CACHE_CAP,
        t.history_events_per_bin,
        t.live_bins,
        on0 as f64 / routes.len().max(1) as f64,
        1.0 - on0 as f64 / routes.len().max(1) as f64,
        t.forecast_requests,
        FORECAST_EVERY,
    );
}

/// A call that holds the generator's one thread in the live phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    /// An ingest or poll call whose group-commit fsync acked records.
    Flush,
    /// A bin close (`StreamFront::maintain`).
    Maintain,
    /// A forecast (interleaved request or bin-boundary score).
    Forecast,
}

/// Every stalling call of the live phase as `(start, end, kind)` since
/// `t0`; calls never overlap, so they are in order of start and end.
struct Stalls {
    t0: Instant,
    calls: Vec<(Duration, Duration, Stall)>,
}

impl Stalls {
    fn time<R>(&mut self, kind: Stall, f: impl FnOnce() -> R) -> R {
        let start = self.t0.elapsed();
        let r = f();
        self.calls.push((start, self.t0.elapsed(), kind));
        r
    }

    /// Durations of the calls of `kind`, ms.
    fn durations_ms(&self, kind: Stall) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|c| c.2 == kind)
            .map(|c| (c.1 - c.0).as_secs_f64() * 1e3)
            .collect()
    }

    /// Share of the summed `waits` (`(from, to)` intervals) spent inside
    /// calls of `kind`.
    fn share(&self, waits: &[(Duration, Duration)], kind: Stall) -> f64 {
        let (mut inside, mut total) = (Duration::ZERO, Duration::ZERO);
        for &(from, to) in waits {
            total += to - from;
            let first = self.calls.partition_point(|c| c.1 <= from);
            for c in self.calls[first..].iter().take_while(|c| c.0 < to) {
                if c.2 == kind {
                    inside += c.1.min(to) - c.0.max(from);
                }
            }
        }
        inside.as_secs_f64() / total.as_secs_f64().max(1e-12)
    }
}

/// Bin-boundary forecasts of the scored statements. They are issued one
/// at a time in the generator's idle time, and all before the next bin
/// closes, so each sees the model as its boundary left it without
/// stalling ingest for a burst of forecasts.
struct Scorer {
    scored: Vec<(u32, String)>,
    /// `(bin start, index into scored)` still to forecast.
    pending: VecDeque<(u64, usize)>,
    /// `(bin start, template, forecast)`.
    scores: Vec<(u64, u32, f64)>,
}

impl Scorer {
    fn queue(&mut self, bin_start: u64) {
        self.pending
            .extend((0..self.scored.len()).map(|i| (bin_start, i)));
    }

    /// Forecast one pending statement; false when none is pending.
    fn step(&mut self, front: &StreamFront, tr: &mut Tracer, stalls: &mut Stalls) -> bool {
        let Some((start, i)) = self.pending.pop_front() else {
            return false;
        };
        let (t, sql) = &self.scored[i];
        let sp = tr.begin("bench.score", 0);
        let f = stalls.time(Stall::Forecast, || front.store().forecast(sql));
        tr.end(sp);
        if let Some(f) = f {
            self.scores.push((start, *t, f));
        }
        true
    }

    fn drain(&mut self, front: &StreamFront, tr: &mut Tracer, stalls: &mut Stalls) {
        while self.step(front, tr, stalls) {}
    }
}

/// Close every bin whose events are all acked, queueing the scored
/// statements' forecasts for the bin that just opened.
#[allow(clippy::too_many_arguments)]
fn close_ready_bins(
    front: &mut StreamFront,
    tr: &mut Tracer,
    tracker: &AckTracker,
    inputs: &Inputs,
    scorer: &mut Scorer,
    next_ev: usize,
    complete_end: u64,
    next_bin_end: &mut u64,
    stalls: &mut Stalls,
) {
    let live = &inputs.live;
    loop {
        let end = *next_bin_end;
        if end > complete_end {
            return;
        }
        let submitted = live.get(next_ev).is_none_or(|e| e.ts >= end);
        let acked =
            (0..tracker.shards()).all(|s| tracker.oldest(s).is_none_or(|id| live[id].ts >= end));
        if !(submitted && acked) {
            return;
        }
        scorer.drain(front, tr, stalls);
        let sp = tr.begin("stream.maintain", 0);
        let _ = stalls.time(Stall::Maintain, || front.maintain(end));
        tr.end(sp);
        scorer.queue(end);
        *next_bin_end += BIN_SECS;
    }
}

/// Symmetric MAPE of every scored forecast against the generated count
/// of its template in the bin it forecast.
fn score(inputs: &Inputs, scores: &[(u64, u32, f64)]) -> Option<f64> {
    let complete_end = inputs.live_complete_end();
    let mut actual: HashMap<(u64, u32), f64> = HashMap::new();
    for e in &inputs.live {
        *actual
            .entry((e.ts / BIN_SECS * BIN_SECS, e.template))
            .or_default() += 1.0;
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(start, t, f) in scores {
        if start + BIN_SECS > complete_end {
            continue;
        }
        let a = actual.get(&(start, t)).copied().unwrap_or(0.0);
        let denom = (f.abs() + a.abs()) / 2.0;
        if denom > 0.0 {
            sum += (f - a).abs() / denom;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_share_counts_only_the_overlap_of_each_kind() {
        let ms = Duration::from_millis;
        let stalls = Stalls {
            t0: Instant::now(),
            calls: vec![
                (ms(0), ms(2), Stall::Flush),
                (ms(3), ms(7), Stall::Maintain),
                (ms(8), ms(9), Stall::Forecast),
                (ms(9), ms(12), Stall::Flush),
            ],
        };
        // Waits 1–5 ms and 6–10 ms: 8 ms in all, of which flushes cover
        // 1 + 1, the bin close 2 + 1 and the forecast 1.
        let waits = [(ms(1), ms(5)), (ms(6), ms(10))];
        assert!((stalls.share(&waits, Stall::Flush) - 2.0 / 8.0).abs() < 1e-9);
        assert!((stalls.share(&waits, Stall::Maintain) - 3.0 / 8.0).abs() < 1e-9);
        assert!((stalls.share(&waits, Stall::Forecast) - 1.0 / 8.0).abs() < 1e-9);
        assert_eq!(stalls.share(&[], Stall::Flush), 0.0);
    }
}
