//! Seeded workload generators.
//!
//! Each `(workload, seed)` maps to one exact list of history events,
//! live events, forecast requests and scored statements; the system
//! under test receives only these inputs. Arrival curves come from
//! `trace::synth::bustracker` (real BusTracker/Alibaba traces are not in
//! the repository): every template follows one of [`GROUPS`] diurnal
//! curves, each phase-shifted, scaled by the template's skewed share.

use dbaugur_sqlproc::fingerprint;
use dbaugur_trace::synth;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Arrival-bin width in event-time seconds (the forecasting interval).
pub(crate) const BIN_SECS: u64 = 600;
/// Open-loop event rate of the live phase, events per wall second: the
/// rate of the sizing prototype this benchmark was planned from (three
/// 30-s runs at 5k events/s on a `bus`-like trace). No public
/// BusTracker/DBAugur rate is in the repository to replace it.
pub(crate) const RATE_EPS: u64 = 5_000;
/// Templates of `bus` (and `skeleton_churn`).
const BUS_TEMPLATES: usize = 200;
/// Mean events per bin of `bus` over its arrival curve.
const BUS_EVENTS_PER_BIN: usize = 1_500;
/// One forecast request follows every this many live events. The
/// consumer is a tuner that asks for each template's next-bin forecast
/// once per bin: on `bus` that is 200 requests per 1,500-event bin, one
/// per 7 events (rounded down), drawn volume-weighted from the live
/// statements. Every workload keeps this ratio.
pub(crate) const FORECAST_EVERY: usize = BUS_EVENTS_PER_BIN / BUS_TEMPLATES;
/// Shards of the store every workload runs on.
pub(crate) const SHARDS: usize = 2;
/// Default capacity of the front door's route cache and of the
/// registry's template cache; traffic is reported against it.
pub(crate) const CACHE_CAP: usize = 8192;
/// Arrival-pattern groups templates are spread over: as many as the
/// pipeline trains clusters for, so each group can be one cluster.
const GROUPS: usize = 3;
/// Candidates for the statements scored at bin boundaries.
const CANDIDATES: usize = 64;
/// Days of arrival curve generated; longer runs wrap around it.
const CURVE_DAYS: usize = 8;
/// Seed of the arrival curves.
const CURVE_SEED: u64 = 2016;

const COLUMNS: [&str; 12] = [
    "route_id",
    "stop_id",
    "vehicle_id",
    "trip_id",
    "arrival",
    "departure",
    "lat",
    "lon",
    "speed",
    "heading",
    "direction",
    "block_id",
];
const TABLES: [&str; 6] = [
    "stops",
    "routes",
    "trips",
    "vehicles",
    "arrivals",
    "schedules",
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BusTracker-shaped traffic over ~200 Zipf-skewed templates with
    /// fixed skeletons: only literals vary, so every cache hits.
    Bus,
    /// `Bus`'s arrivals and templates with every statement's SELECT
    /// list, AND conjuncts and equality operands permuted: the caches
    /// miss, the canonicalizer still maps each onto the same template.
    SkeletonChurn,
    /// ~1,500 log-uniformly skewed templates with sparse bins: the cost
    /// moves onto bin closes and training's clustering.
    Wide,
}

/// How template shares are skewed.
#[derive(Debug, Clone, Copy)]
enum Skew {
    /// Share ∝ 1 / rank^s.
    Zipf(f64),
    /// Share = ratio^U(0,1): log-uniform over `ratio`.
    LogUniform(f64),
}

/// Traffic shape of one workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    templates: usize,
    skew: Skew,
    /// Mean events per bin over the whole arrival curve.
    events_per_bin: f64,
    /// Bins of history loaded and trained on.
    history_bins: u64,
    /// Permute each statement's commutative parts.
    churn: bool,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Bus, Workload::SkeletonChurn, Workload::Wide];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bus => "bus",
            Workload::SkeletonChurn => "skeleton_churn",
            Workload::Wide => "wide",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn spec(self) -> Spec {
        match self {
            Workload::Bus | Workload::SkeletonChurn => Spec {
                templates: BUS_TEMPLATES,
                skew: Skew::Zipf(1.0),
                events_per_bin: BUS_EVENTS_PER_BIN as f64,
                history_bins: 144,
                churn: self == Workload::SkeletonChurn,
            },
            Workload::Wide => Spec {
                // About 1,500 of these appear in the logs: the rarest
                // shares never draw an event.
                templates: 2_000,
                skew: Skew::LogUniform(10_000.0),
                events_per_bin: 600.0,
                history_bins: 144,
                churn: false,
            },
        }
    }
}

/// One logged statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Event {
    /// Event time, seconds.
    pub ts: u64,
    /// Generator's template index (ground truth, not given to the system).
    pub template: u32,
    /// The statement text.
    pub sql: String,
}

/// Everything one run feeds the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Inputs {
    /// The workload generated.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// History log, loaded closed-loop and trained on.
    pub history: Vec<Event>,
    /// Live log, streamed open-loop at [`RATE_EPS`].
    pub live: Vec<Event>,
    /// Per forecast request, the live event whose statement it asks
    /// about (volume-weighted); request `k` follows live event
    /// `(k + 1) * FORECAST_EVERY - 1`.
    pub forecasts: Vec<usize>,
    /// One statement of each of the heaviest templates, heaviest first,
    /// with its template: the statements scored at bin boundaries are
    /// the first of these the trained system answers.
    pub candidates: Vec<(u32, String)>,
}

/// Fixed skeleton parts of one template.
struct Shape {
    table: String,
    select: [&'static str; 4],
    preds: [&'static str; 3],
}

impl Shape {
    fn new(t: usize) -> Self {
        // Strides coprime to 12 keep the picked columns distinct.
        let h = t.wrapping_mul(0x9E37_79B9) >> 3;
        let col = |i: usize, stride: usize| COLUMNS[(h + i * stride) % COLUMNS.len()];
        Shape {
            table: format!("{}_{t}", TABLES[t % TABLES.len()]),
            select: [col(0, 5), col(1, 5), col(2, 5), col(3, 5)],
            preds: [col(1, 7), col(2, 7), col(3, 7)],
        }
    }

    /// Render with `lits` as the predicate literals; with `perm`, the
    /// SELECT list and conjuncts are shuffled and equalities flipped.
    fn render(&self, lits: [u32; 3], perm: Option<&mut StdRng>) -> String {
        let mut select = self.select;
        let mut conj: Vec<String> = self
            .preds
            .iter()
            .zip(lits)
            .map(|(c, v)| format!("{c} = {v}"))
            .collect();
        if let Some(rng) = perm {
            select.shuffle(rng);
            conj = self
                .preds
                .iter()
                .zip(lits)
                .map(|(c, v)| {
                    if rng.gen_bool(0.5) {
                        format!("{v} = {c}")
                    } else {
                        format!("{c} = {v}")
                    }
                })
                .collect();
            conj.shuffle(rng);
        }
        format!(
            "SELECT {} FROM {} WHERE {}",
            select.join(", "),
            self.table,
            conj.join(" AND ")
        )
    }
}

/// Per-group arrival curves, each normalized to mean 1 and shifted by
/// a fraction of a day from the previous one. The curves are the
/// workload's fixed shape; seeds draw samples of it.
fn curves() -> Vec<Vec<f64>> {
    (0..GROUPS)
        .map(|g| {
            let raw = synth::bustracker(CURVE_SEED + g as u64, CURVE_DAYS);
            let v = raw.values();
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let shift = g * synth::SAMPLES_PER_DAY / GROUPS;
            (0..v.len())
                .map(|i| v[(i + shift) % v.len()] / mean.max(1e-9))
                .collect()
        })
        .collect()
}

impl Inputs {
    /// Generate `(workload, seed)`'s inputs with `live_events` live events.
    pub fn generate(workload: Workload, seed: u64, live_events: usize) -> Self {
        let spec = workload.spec();
        // Separate streams so `Bus` and `SkeletonChurn` draw identical
        // arrivals and literals; only the permutation stream differs.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA881_7A15);
        let mut lit_rng = StdRng::seed_from_u64(seed ^ 0x117E_4A15);
        let mut perm_rng = StdRng::seed_from_u64(seed ^ 0x9E4B_0CE5);
        let n = spec.templates;
        let shapes: Vec<Shape> = (0..n).map(Shape::new).collect();
        let mut share: Vec<f64> = match spec.skew {
            Skew::Zipf(s) => (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect(),
            Skew::LogUniform(ratio) => (0..n).map(|_| ratio.powf(rng.gen::<f64>())).collect(),
        };
        share.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = share.iter().sum();
        share.iter_mut().for_each(|w| *w /= total);
        // Shares are dealt out by rank, round-robin over the groups, so
        // every group carries a like volume on every seed; the seed picks
        // which template gets which rank.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut group = vec![0usize; n];
        let mut by_template = vec![0.0f64; n];
        for (rank, &t) in order.iter().enumerate() {
            group[t] = rank % GROUPS;
            by_template[t] = share[rank];
        }
        let share = by_template;
        let curves = curves();

        let mut history = Vec::new();
        let mut live = Vec::new();
        let mut bin = 0u64;
        while live.len() < live_events {
            let mut events: Vec<(u64, u32)> = Vec::new();
            for t in 0..n {
                let curve = &curves[group[t]];
                let lambda = spec.events_per_bin * share[t] * curve[bin as usize % curve.len()];
                let count = lambda.floor() as u64 + u64::from(rng.gen::<f64>() < lambda.fract());
                for _ in 0..count {
                    events.push((bin * BIN_SECS + rng.gen_range(0..BIN_SECS), t as u32));
                }
            }
            events.sort_by_key(|&(ts, _)| ts);
            let out = if bin < spec.history_bins {
                &mut history
            } else {
                &mut live
            };
            for (ts, t) in events {
                let lits = [
                    lit_rng.gen_range(0..10_000u32),
                    lit_rng.gen_range(0..10_000u32),
                    lit_rng.gen_range(0..10_000u32),
                ];
                let perm = if spec.churn {
                    Some(&mut perm_rng)
                } else {
                    None
                };
                let sql = shapes[t as usize].render(lits, perm);
                out.push(Event {
                    ts,
                    template: t,
                    sql,
                });
            }
            bin += 1;
        }
        live.truncate(live_events);

        let mut req_rng = StdRng::seed_from_u64(seed ^ 0x00F0_CA57);
        let forecasts = (0..live.len() / FORECAST_EVERY)
            .map(|_| req_rng.gen_range(0..live.len()))
            .collect();

        let candidates = order
            .iter()
            .filter_map(|&t| history.iter().find(|e| e.template == t as u32))
            .take(CANDIDATES)
            .map(|e| (e.template, e.sql.clone()))
            .collect();
        Inputs {
            workload,
            seed,
            history,
            live,
            forecasts,
            candidates,
        }
    }

    /// End of the history span (start of the live log), event seconds.
    pub fn history_end(&self) -> u64 {
        self.workload.spec().history_bins * BIN_SECS
    }

    /// End of the last live bin the live log covers completely.
    pub fn live_complete_end(&self) -> u64 {
        self.live
            .last()
            .map_or(self.history_end(), |e| e.ts / BIN_SECS * BIN_SECS)
    }

    /// FNV-1a over every generated byte: equal digests mean the same
    /// inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in self.history.iter().chain(&self.live) {
            h.eat(&e.ts.to_le_bytes());
            h.eat(&e.template.to_le_bytes());
            h.eat(e.sql.as_bytes());
        }
        for &f in &self.forecasts {
            h.eat(&(f as u64).to_le_bytes());
        }
        for (t, sql) in &self.candidates {
            h.eat(&t.to_le_bytes());
            h.eat(sql.as_bytes());
        }
        h.0
    }

    /// Measured traffic properties.
    pub fn traffic(&self) -> Traffic {
        let all = || self.history.iter().chain(&self.live);
        let templates: HashSet<u32> = all().map(|e| e.template).collect();
        let fingerprints: HashSet<u64> = all().map(|e| fingerprint(&e.sql)).collect();
        let bins_hist = self.workload.spec().history_bins as f64;
        let live_bins = (self.live_complete_end() - self.history_end()) / BIN_SECS;
        Traffic {
            history_events: self.history.len(),
            live_events: self.live.len(),
            templates: templates.len(),
            fingerprints: fingerprints.len(),
            history_events_per_bin: self.history.len() as f64 / bins_hist,
            live_bins,
            forecast_requests: self.forecasts.len(),
        }
    }
}

/// Traffic properties printed with every run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Traffic {
    /// Events in the history log.
    pub history_events: usize,
    /// Events in the live log.
    pub live_events: usize,
    /// Distinct templates over both logs.
    pub templates: usize,
    /// Distinct statement fingerprints over both logs.
    pub fingerprints: usize,
    /// Mean events per history bin.
    pub history_events_per_bin: f64,
    /// Complete bins in the live log.
    pub live_bins: u64,
    /// Forecast requests in the live phase.
    pub forecast_requests: usize,
}

/// 64-bit FNV-1a.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbaugur_sqlproc::canonicalize;

    const LIVE: usize = 4_000;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7, LIVE);
            let b = Inputs::generate(w, 7, LIVE);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a.digest(), b.digest());
            let c = Inputs::generate(w, 8, LIVE);
            assert_ne!(a.digest(), c.digest(), "{}: the seed matters", w.name());
            assert_eq!(a.live.len(), LIVE);
            assert_eq!(a.forecasts.len(), LIVE / FORECAST_EVERY);
            assert!(!a.candidates.is_empty());
            assert!(a.history.windows(2).all(|p| p[0].ts <= p[1].ts));
            assert!(a.live.first().expect("live").ts >= a.history_end());
        }
    }

    #[test]
    fn skeleton_churn_overflows_the_caches_over_bus_templates() {
        let bus = Inputs::generate(Workload::Bus, 3, LIVE);
        let churn = Inputs::generate(Workload::SkeletonChurn, 3, LIVE);
        let (tb, tc) = (bus.traffic(), churn.traffic());
        assert!(
            tb.fingerprints <= tb.templates,
            "bus skeletons are fixed: {tb:?}"
        );
        assert!(
            tc.fingerprints > 8 * CACHE_CAP,
            "churn must overflow the caches: {tc:?}"
        );
        assert_eq!(tb.templates, tc.templates);
        // Same arrivals; every churned statement canonicalizes onto the
        // template its bus twin does.
        assert_eq!(bus.history.len(), churn.history.len());
        for (b, c) in bus.history.iter().zip(&churn.history).step_by(97) {
            assert_eq!((b.ts, b.template), (c.ts, c.template));
            assert_eq!(
                canonicalize(&b.sql),
                canonicalize(&c.sql),
                "{} vs {}",
                b.sql,
                c.sql
            );
        }
    }

    #[test]
    fn wide_has_many_more_templates_and_sparser_bins() {
        let bus = Inputs::generate(Workload::Bus, 5, LIVE).traffic();
        let wide = Inputs::generate(Workload::Wide, 5, LIVE).traffic();
        assert!(wide.templates >= 5 * bus.templates, "{wide:?} vs {bus:?}");
        assert!(
            wide.history_events_per_bin * 2.0 < bus.history_events_per_bin,
            "{wide:?} vs {bus:?}"
        );
        assert!(
            wide.fingerprints <= CACHE_CAP,
            "wide still hits the caches: {wide:?}"
        );
    }

    #[test]
    fn canonicalizer_merges_every_permutation() {
        let shape = Shape::new(11);
        let mut rng = StdRng::seed_from_u64(1);
        let fixed = canonicalize(&shape.render([1, 2, 3], None));
        for _ in 0..50 {
            let sql = shape.render([4, 5, 6], Some(&mut rng));
            assert_eq!(canonicalize(&sql), fixed, "{sql}");
        }
    }
}
