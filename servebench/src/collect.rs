//! The benchmark's metric collector: an [`EngineObserver`] that folds the
//! engine's event stream into the user-facing (virtual-clock) metrics.
//!
//! Every number here comes from events and the run's report, never from
//! derived report ratios: `RunReport::hit_rate()` exceeds 1 under
//! content-addressed keying (first-turn shared-prefix hits land in its
//! numerator, its denominator counts only resumption turns), so the
//! consult shares are counted per `Consulted` event instead.
//!
//! Turn accounting follows the engine's closed loop: a session has at
//! most one turn in flight, so `PrefillDone` and `Retired` (which carry
//! no turn index) belong to the session's most recent `TurnArrived`.
//! - TTFT runs from that arrival to the turn's *first* `PrefillDone`; a
//!   turn re-routed after a crash keeps its original arrival, and a
//!   re-prefill after a mid-decode crash does not reset the user's first
//!   token.
//! - TPOT runs from the turn's *last* `PrefillDone` (the decode that
//!   finished) to `Retired`, over `resp_tokens - 1` gaps; one-token
//!   replies have no gap and are excluded.

use std::hash::{Hash, Hasher};

use engine::{ConsultClass, EngineEvent, EngineObserver};
use metrics::aws::PriceSheet;
use sim::Time;
use workload::Trace;

/// First-token deadline behind `slo_attainment`, seconds.
pub const TTFT_SLO_SECS: f64 = 5.0;

/// What the cost metric needs to know about the serving setup.
#[derive(Debug, Clone, Copy)]
pub struct CostBasis {
    /// Instances alive at t = 0.
    pub base_instances: u32,
    /// GPUs per serving instance.
    pub gpus_per_instance: u32,
    /// Tier-0 (DRAM) capacity rented for the run, bytes.
    pub dram_bytes: u64,
    /// Capacity of every slower tier (SSD) rented for the run, bytes.
    pub ssd_bytes: u64,
}

/// Progress of one session's current turn.
#[derive(Debug, Clone, Default)]
struct SessionTrack {
    /// Response tokens of each trace turn.
    resp_tokens: Vec<u32>,
    /// Turns that arrived.
    arrived: usize,
    /// Turns retired.
    retired: usize,
    /// The in-flight turn's arrival.
    arrived_at: Option<Time>,
    /// Whether the in-flight turn has been admitted at least once.
    admitted: bool,
    /// The in-flight turn's first token (first `PrefillDone`).
    first_token: Option<Time>,
    /// The in-flight turn's latest `PrefillDone`.
    last_prefill_done: Option<Time>,
    /// The turn index the session was shed at, if it was.
    shed_at_turn: Option<usize>,
}

/// Folds an engine event stream into the benchmark's virtual metrics.
#[derive(Debug, Clone)]
pub struct Collector {
    sessions: Vec<SessionTrack>,
    /// External session id → index into `sessions`.
    index: std::collections::HashMap<u64, usize>,
    alive: u32,
    alive_since: Time,
    tally: Tally,
    /// Closed-loop violations seen (a turn arriving out of order, or an
    /// event for a session with nothing in flight).
    anomalies: Vec<String>,
}

/// The raw samples and sums of one or more runs. Tallies of independent
/// runs pool with [`Tally::absorb`]; [`Tally::metrics`] reads them out.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    trace_turns: u64,
    retired: u64,
    sheds: u64,
    slo_met: u64,
    consult_fast: u64,
    consult_slow: u64,
    consult_miss: u64,
    reused_tokens: u64,
    computed_tokens: u64,
    ttft: Vec<f64>,
    service_ttft: Vec<f64>,
    queue_wait: Vec<f64>,
    tpot: Vec<f64>,
    load_secs: f64,
    hidden_secs: f64,
    stall_secs: f64,
    instance_secs: f64,
    busy_secs: f64,
    usd: f64,
}

/// The virtual-clock metrics of a tally. Exact for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// Turns in the trace.
    pub trace_turns: u64,
    /// Turns that retired.
    pub retired: u64,
    /// Arrival → first token, median, seconds.
    pub ttft_p50_s: f64,
    /// Arrival → first token, p99, seconds.
    pub ttft_p99_s: f64,
    /// TTFT samples (turns that produced a first token).
    pub ttft_samples: u64,
    /// Time per output token, p99, milliseconds.
    pub tpot_p99_ms: f64,
    /// TPOT samples (retired turns with at least two output tokens).
    pub tpot_samples: u64,
    /// Trace turns whose first token came within [`TTFT_SLO_SECS`].
    pub slo_attainment: f64,
    /// Trace turns that never retired, as a share of trace turns.
    pub turns_failed_frac: f64,
    /// Dollars per 1,000 retired turns.
    pub usd_per_1k_turns: f64,
    /// Arrival → first admission, p99, seconds.
    pub queue_wait_p99_s: f64,
    /// Admission → first token (the paper's Fig. 14 TTFT), median, seconds.
    pub service_ttft_p50_s: f64,
    /// Transfer time left visible on the critical path, seconds.
    pub stall_s: f64,
    /// Share of required KV load time hidden under compute: per prefill,
    /// `max(load - stall, 0)`, summed over summed load. The stall also
    /// covers waits for slower-tier staging, so `1 - stall / load` taken
    /// over totals can go negative; the per-prefill clamp matches the
    /// telemetry hub's `overlap_efficiency`.
    pub overlap_hidden_frac: f64,
    /// Prefilled tokens over presented tokens, across admissions.
    pub recompute_frac: f64,
    /// GPU busy seconds over instance-seconds alive.
    pub gpu_busy_frac: f64,
    /// Store consults answered from the fast tier, per consult.
    pub consult_fast_frac: f64,
    /// Store consults answered from a slower tier, per consult.
    pub consult_slow_frac: f64,
    /// Store consults that found nothing, per consult.
    pub consult_miss_frac: f64,
    /// Turns shed (each ends its session).
    pub sheds: u64,
    /// Instance-hours alive (base fleet plus autoscaler changes).
    pub instance_hours: f64,
}

/// Nearest-rank percentile of `v`; 0 when empty.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Collector {
    /// A collector for a run over `trace` that starts with `base_instances`
    /// serving instances alive.
    pub fn new(trace: &Trace, base_instances: u32) -> Self {
        let mut index = std::collections::HashMap::with_capacity(trace.sessions.len());
        let sessions = trace
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                index.insert(s.id, i);
                SessionTrack {
                    resp_tokens: s.turns.iter().map(|t| t.resp_tokens).collect(),
                    ..SessionTrack::default()
                }
            })
            .collect();
        Collector {
            sessions,
            index,
            alive: base_instances,
            alive_since: Time::ZERO,
            tally: Tally {
                trace_turns: trace.total_turns() as u64,
                ..Tally::default()
            },
            anomalies: Vec::new(),
        }
    }

    fn track(&mut self, session: u64, what: &str) -> Option<&mut SessionTrack> {
        match self.index.get(&session) {
            Some(&i) => Some(&mut self.sessions[i]),
            None => {
                self.anomalies
                    .push(format!("{what} for unknown session {session}"));
                None
            }
        }
    }

    /// The in-flight turn of `session`, or an anomaly when none is.
    fn in_flight(&mut self, session: u64, what: &str) -> Option<(usize, Time)> {
        let t = self.track(session, what)?;
        match t.arrived_at {
            Some(at) => Some((t.arrived - 1, at)),
            None => {
                self.anomalies.push(format!(
                    "{what} for session {session} with no turn in flight"
                ));
                None
            }
        }
    }

    fn set_alive(&mut self, n_alive: u32, at: Time) {
        self.tally.instance_secs += self.alive as f64 * (at - self.alive_since).as_secs_f64();
        self.alive = n_alive;
        self.alive_since = at;
    }

    /// Turn conservation: retired + unserved == trace turns, and every
    /// unserved turn belongs to a session that was shed at exactly the
    /// turn its service stopped. Returns the first violation.
    pub fn check_conservation(&self) -> Result<(), String> {
        if let Some(a) = self.anomalies.first() {
            return Err(format!("event stream anomaly: {a}"));
        }
        let mut retired = 0u64;
        for (i, s) in self.sessions.iter().enumerate() {
            retired += s.retired as u64;
            let n = s.resp_tokens.len();
            if s.retired > n {
                return Err(format!("session #{i} retired {} of {n} turns", s.retired));
            }
            if s.retired < n && s.shed_at_turn != Some(s.retired) {
                return Err(format!(
                    "session #{i} served {} of {n} turns without a shed at turn {}",
                    s.retired, s.retired
                ));
            }
        }
        if retired != self.tally.retired {
            return Err(format!(
                "per-session retirements {retired} != Retired events {}",
                self.tally.retired
            ));
        }
        let unserved: u64 = self
            .sessions
            .iter()
            .map(|s| (s.resp_tokens.len() - s.retired) as u64)
            .sum();
        if retired + unserved != self.tally.trace_turns {
            return Err(format!(
                "retired {retired} + unserved {unserved} != trace turns {}",
                self.tally.trace_turns
            ));
        }
        Ok(())
    }

    /// Turns that arrived.
    pub fn turns_arrived(&self) -> u64 {
        self.sessions.iter().map(|s| s.arrived as u64).sum()
    }

    /// Turns that retired.
    pub fn retired(&self) -> u64 {
        self.tally.retired
    }

    /// Closes the run at `makespan_secs`; `gpu_busy_secs` is the report's
    /// prefill + decode + stall time.
    pub fn finish(mut self, makespan_secs: f64, gpu_busy_secs: f64, cost: CostBasis) -> Tally {
        let end = Time::from_secs_f64(makespan_secs);
        if end > self.alive_since {
            self.set_alive(self.alive, end);
        }
        let t = &mut self.tally;
        let prices = PriceSheet::default();
        let hours = makespan_secs / 3600.0;
        t.usd = prices.gpu_per_hour * cost.gpus_per_instance as f64 * t.instance_secs / 3600.0
            + prices.dram_per_gb_hour * cost.dram_bytes as f64 / 1e9 * hours
            + prices.ssd_per_gb_hour * cost.ssd_bytes as f64 / 1e9 * hours;
        t.busy_secs = gpu_busy_secs;
        self.tally
    }
}

/// Every sample and sum, bit for bit: equal hashes stand for equal tallies.
impl Hash for Tally {
    fn hash<H: Hasher>(&self, h: &mut H) {
        [
            self.trace_turns,
            self.retired,
            self.sheds,
            self.slo_met,
            self.consult_fast,
            self.consult_slow,
            self.consult_miss,
            self.reused_tokens,
            self.computed_tokens,
        ]
        .hash(h);
        let sums = [
            self.load_secs,
            self.hidden_secs,
            self.stall_secs,
            self.instance_secs,
            self.busy_secs,
            self.usd,
        ];
        let samples = [&self.ttft, &self.service_ttft, &self.queue_wait, &self.tpot];
        for x in sums.iter().chain(samples.into_iter().flatten()) {
            x.to_bits().hash(h);
        }
    }
}

impl Tally {
    /// Pools `other`'s samples and sums into `self`.
    pub fn absorb(&mut self, other: Tally) {
        self.trace_turns += other.trace_turns;
        self.retired += other.retired;
        self.sheds += other.sheds;
        self.slo_met += other.slo_met;
        self.consult_fast += other.consult_fast;
        self.consult_slow += other.consult_slow;
        self.consult_miss += other.consult_miss;
        self.reused_tokens += other.reused_tokens;
        self.computed_tokens += other.computed_tokens;
        self.ttft.extend(other.ttft);
        self.service_ttft.extend(other.service_ttft);
        self.queue_wait.extend(other.queue_wait);
        self.tpot.extend(other.tpot);
        self.load_secs += other.load_secs;
        self.hidden_secs += other.hidden_secs;
        self.stall_secs += other.stall_secs;
        self.instance_secs += other.instance_secs;
        self.busy_secs += other.busy_secs;
        self.usd += other.usd;
    }

    /// Reads the metrics out of the pooled samples.
    pub fn metrics(&self) -> Virtual {
        let turns = self.trace_turns as f64;
        let consults = (self.consult_fast + self.consult_slow + self.consult_miss) as f64;
        Virtual {
            trace_turns: self.trace_turns,
            retired: self.retired,
            ttft_samples: self.ttft.len() as u64,
            ttft_p50_s: percentile(&self.ttft, 0.50),
            ttft_p99_s: percentile(&self.ttft, 0.99),
            tpot_samples: self.tpot.len() as u64,
            tpot_p99_ms: percentile(&self.tpot, 0.99) * 1e3,
            slo_attainment: ratio(self.slo_met as f64, turns),
            turns_failed_frac: ratio(turns - self.retired as f64, turns),
            usd_per_1k_turns: ratio(self.usd * 1000.0, self.retired as f64),
            queue_wait_p99_s: percentile(&self.queue_wait, 0.99),
            service_ttft_p50_s: percentile(&self.service_ttft, 0.50),
            stall_s: self.stall_secs,
            overlap_hidden_frac: ratio(self.hidden_secs, self.load_secs),
            recompute_frac: ratio(
                self.computed_tokens as f64,
                (self.computed_tokens + self.reused_tokens) as f64,
            ),
            gpu_busy_frac: ratio(self.busy_secs, self.instance_secs),
            consult_fast_frac: ratio(self.consult_fast as f64, consults),
            consult_slow_frac: ratio(self.consult_slow as f64, consults),
            consult_miss_frac: ratio(self.consult_miss as f64, consults),
            sheds: self.sheds,
            instance_hours: self.instance_secs / 3600.0,
        }
    }
}

impl EngineObserver for Collector {
    fn on_event(&mut self, ev: EngineEvent) {
        match ev {
            EngineEvent::TurnArrived { session, turn, at } => {
                let Some(t) = self.track(session, "arrival") else {
                    return;
                };
                let expected = t.retired;
                let overlapping = t.arrived_at.is_some();
                t.arrived += 1;
                t.arrived_at = Some(at);
                t.admitted = false;
                t.first_token = None;
                t.last_prefill_done = None;
                if turn != expected || overlapping {
                    self.anomalies.push(format!(
                        "session {session} turn {turn} arrived with {expected} retired"
                    ));
                }
            }
            EngineEvent::Admitted {
                session,
                reused,
                computed,
                at,
                ..
            } => {
                self.tally.reused_tokens += reused;
                self.tally.computed_tokens += computed;
                let Some((_, arrived)) = self.in_flight(session, "admission") else {
                    return;
                };
                let t = self.track(session, "admission").expect("tracked above");
                if !t.admitted {
                    t.admitted = true;
                    self.tally.queue_wait.push((at - arrived).as_secs_f64());
                }
            }
            EngineEvent::PrefillTimed {
                load_secs,
                stall_secs,
                ..
            } => {
                self.tally.load_secs += load_secs;
                self.tally.hidden_secs += (load_secs - stall_secs).max(0.0);
                self.tally.stall_secs += stall_secs;
            }
            EngineEvent::PrefillDone {
                session,
                ttft_secs,
                at,
            } => {
                let Some((_, arrived)) = self.in_flight(session, "first token") else {
                    return;
                };
                let t = self.track(session, "first token").expect("tracked above");
                t.last_prefill_done = Some(at);
                if t.first_token.is_none() {
                    t.first_token = Some(at);
                    let ttft = (at - arrived).as_secs_f64();
                    self.tally.ttft.push(ttft);
                    self.tally.service_ttft.push(ttft_secs);
                    if ttft <= TTFT_SLO_SECS {
                        self.tally.slo_met += 1;
                    }
                }
            }
            EngineEvent::Retired { session, at, .. } => {
                let Some((turn, _)) = self.in_flight(session, "retirement") else {
                    return;
                };
                let t = self.track(session, "retirement").expect("tracked above");
                let resp = t.resp_tokens.get(turn).copied().unwrap_or(0);
                let decode_from = t.last_prefill_done;
                t.retired += 1;
                t.arrived_at = None;
                self.tally.retired += 1;
                match decode_from {
                    Some(from) if resp >= 2 => {
                        self.tally
                            .tpot
                            .push((at - from).as_secs_f64() / f64::from(resp - 1));
                    }
                    Some(_) => {}
                    None => self
                        .anomalies
                        .push(format!("session {session} retired without a first token")),
                }
            }
            EngineEvent::TurnShed { session, turn, .. } => {
                self.tally.sheds += 1;
                if let Some(t) = self.track(session, "shed") {
                    t.shed_at_turn = Some(turn);
                }
            }
            EngineEvent::Consulted { class, .. } => match class {
                ConsultClass::HitFast => self.tally.consult_fast += 1,
                ConsultClass::HitSlow => self.tally.consult_slow += 1,
                ConsultClass::Miss => self.tally.consult_miss += 1,
                ConsultClass::NoHistory | ConsultClass::NoStore => {}
            },
            EngineEvent::ScaleUp { n_alive, at, .. }
            | EngineEvent::ScaleDown { n_alive, at, .. } => {
                self.set_alive(n_alive, at);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Dur;
    use workload::{SessionSpec, TurnSpec};

    fn t(secs: f64) -> Time {
        Time::from_secs_f64(secs)
    }

    /// A trace of sessions with the given per-turn response lengths.
    fn trace(sessions: &[&[u32]]) -> Trace {
        Trace::new(
            sessions
                .iter()
                .enumerate()
                .map(|(i, resps)| SessionSpec {
                    id: i as u64,
                    arrival: Time::ZERO,
                    turns: resps
                        .iter()
                        .map(|&r| TurnSpec {
                            user_tokens: 10,
                            resp_tokens: r,
                            think: Dur::from_secs_f64(1.0),
                            ttft_deadline: None,
                        })
                        .collect(),
                    content: None,
                })
                .collect(),
        )
    }

    const BASIS: CostBasis = CostBasis {
        base_instances: 1,
        gpus_per_instance: 2,
        dram_bytes: 0,
        ssd_bytes: 0,
    };

    fn feed(c: &mut Collector, evs: &[EngineEvent]) {
        for &ev in evs {
            c.on_event(ev);
        }
    }

    #[test]
    fn normal_turn() {
        let tr = trace(&[&[11]]);
        let mut c = Collector::new(&tr, 1);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(1.0)),
                EngineEvent::consulted(0, ConsultClass::NoHistory, 0, t(1.5)),
                EngineEvent::admitted(0, 0, 10, false, t(1.5)),
                EngineEvent::prefill_timed(0, 0.0, 0.5, 0.0, None, t(1.5)),
                EngineEvent::prefill_done(0, 0.5, t(2.0)),
                EngineEvent::retired(0, 21, t(3.0)),
            ],
        );
        c.check_conservation().unwrap();
        let v = c.finish(4.0, 1.5, BASIS).metrics();
        assert_eq!(v.ttft_samples, 1);
        assert!((v.ttft_p50_s - 1.0).abs() < 1e-9);
        assert!((v.ttft_p99_s - 1.0).abs() < 1e-9);
        assert!((v.service_ttft_p50_s - 0.5).abs() < 1e-9);
        assert!((v.queue_wait_p99_s - 0.5).abs() < 1e-9);
        // 1 s of decode over 10 token gaps.
        assert!((v.tpot_p99_ms - 100.0).abs() < 1e-6);
        assert_eq!(v.slo_attainment, 1.0);
        assert_eq!(v.turns_failed_frac, 0.0);
        assert_eq!(v.recompute_frac, 1.0);
        // A first turn has nothing to consult: no store consult counted.
        assert_eq!(
            v.consult_fast_frac + v.consult_slow_frac + v.consult_miss_frac,
            0.0
        );
        // 1 instance x 2 GPUs x 4 s at $5/GPU-hour, per 1 retired turn.
        let usd = 5.0 * 2.0 * 4.0 / 3600.0;
        assert!((v.usd_per_1k_turns - usd * 1000.0).abs() < 1e-9);
        assert!((v.gpu_busy_frac - 1.5 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn rerouted_mid_decode_keeps_original_arrival() {
        let tr = trace(&[&[5]]);
        let mut c = Collector::new(&tr, 2);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(10.0)),
                EngineEvent::admitted(0, 0, 10, false, t(11.0)),
                EngineEvent::prefill_done(0, 1.0, t(12.0)),
                // Instance crashes mid-decode; the turn restarts elsewhere.
                EngineEvent::instance_crashed(0, t(12.5)),
                EngineEvent::turn_rerouted(0, 0, 1, t(12.5)),
                EngineEvent::admitted(0, 0, 10, false, t(14.0)),
                EngineEvent::prefill_done(0, 1.0, t(15.0)),
                EngineEvent::retired(0, 15, t(17.0)),
            ],
        );
        c.check_conservation().unwrap();
        let v = c.finish(17.0, 0.0, BASIS).metrics();
        // TTFT and queue wait from the original arrival to the first
        // token and first admission; nothing is sampled twice.
        assert_eq!(v.ttft_samples, 1);
        assert!((v.ttft_p50_s - 2.0).abs() < 1e-9);
        assert!((v.queue_wait_p99_s - 1.0).abs() < 1e-9);
        // TPOT from the re-run's first token: 2 s over 4 gaps.
        assert_eq!(v.tpot_samples, 1);
        assert!((v.tpot_p99_ms - 500.0).abs() < 1e-6);
        assert_eq!(v.retired, 1);
    }

    #[test]
    fn rerouted_before_first_token_times_from_original_arrival() {
        let tr = trace(&[&[3]]);
        let mut c = Collector::new(&tr, 2);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(10.0)),
                EngineEvent::turn_rerouted(0, 0, 1, t(11.0)),
                EngineEvent::admitted(0, 0, 10, false, t(12.0)),
                EngineEvent::prefill_done(0, 4.0, t(16.0)),
                EngineEvent::retired(0, 13, t(17.0)),
            ],
        );
        let v = c.finish(17.0, 0.0, BASIS).metrics();
        assert!((v.ttft_p50_s - 6.0).abs() < 1e-9);
        assert_eq!(v.slo_attainment, 0.0, "6 s misses the 5 s deadline");
    }

    #[test]
    fn shed_session_fails_its_later_turns() {
        // Session 0 completes both turns; session 1 is shed at its second
        // turn, so turns 1 and 2 of it are failed.
        let tr = trace(&[&[4, 4], &[4, 4, 4]]);
        let mut c = Collector::new(&tr, 1);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(0.0)),
                EngineEvent::turn_arrived(1, 0, t(0.0)),
                EngineEvent::admitted(0, 0, 10, false, t(0.0)),
                EngineEvent::admitted(1, 0, 10, false, t(0.0)),
                EngineEvent::prefill_done(0, 1.0, t(1.0)),
                EngineEvent::prefill_done(1, 1.0, t(1.0)),
                EngineEvent::retired(0, 14, t(2.0)),
                EngineEvent::retired(1, 14, t(2.0)),
                EngineEvent::turn_arrived(0, 1, t(3.0)),
                // The engine announces the arrival, then sheds it.
                EngineEvent::turn_arrived(1, 1, t(3.0)),
                EngineEvent::turn_shed(1, 1, "inbox_full", t(3.0)),
                EngineEvent::consulted(0, ConsultClass::HitFast, 14, t(3.0)),
                EngineEvent::admitted(0, 14, 10, false, t(3.0)),
                EngineEvent::prefill_done(0, 1.0, t(4.0)),
                EngineEvent::retired(0, 28, t(5.0)),
            ],
        );
        c.check_conservation().unwrap();
        let v = c.finish(5.0, 0.0, BASIS).metrics();
        assert_eq!(v.trace_turns, 5);
        assert_eq!(v.retired, 3);
        assert_eq!(v.sheds, 1);
        assert!((v.turns_failed_frac - 2.0 / 5.0).abs() < 1e-12);
        assert!((v.slo_attainment - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(v.consult_fast_frac, 1.0);
    }

    #[test]
    fn unserved_turns_without_a_shed_break_conservation() {
        let tr = trace(&[&[4, 4]]);
        let mut c = Collector::new(&tr, 1);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(0.0)),
                EngineEvent::admitted(0, 0, 10, false, t(0.0)),
                EngineEvent::prefill_done(0, 1.0, t(1.0)),
                EngineEvent::retired(0, 14, t(2.0)),
            ],
        );
        assert!(c.check_conservation().is_err());
    }

    #[test]
    fn one_token_reply_is_excluded_from_tpot() {
        let tr = trace(&[&[1, 3]]);
        let mut c = Collector::new(&tr, 1);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(0.0)),
                EngineEvent::admitted(0, 0, 10, false, t(0.0)),
                EngineEvent::prefill_done(0, 1.0, t(1.0)),
                EngineEvent::retired(0, 11, t(1.0)),
                EngineEvent::turn_arrived(0, 1, t(2.0)),
                EngineEvent::consulted(0, ConsultClass::HitSlow, 11, t(2.0)),
                EngineEvent::admitted(0, 11, 10, false, t(2.0)),
                EngineEvent::prefill_done(0, 1.0, t(3.0)),
                EngineEvent::retired(0, 24, t(3.2)),
            ],
        );
        c.check_conservation().unwrap();
        let v = c.finish(3.2, 0.0, BASIS).metrics();
        assert_eq!(v.ttft_samples, 2);
        assert_eq!(v.tpot_samples, 1);
        assert!((v.tpot_p99_ms - 100.0).abs() < 1e-6);
        assert_eq!(v.consult_slow_frac, 1.0);
    }

    #[test]
    fn autoscaled_instances_are_billed_while_alive() {
        let tr = trace(&[&[2]]);
        let mut c = Collector::new(&tr, 2);
        feed(
            &mut c,
            &[
                EngineEvent::turn_arrived(0, 0, t(0.0)),
                EngineEvent::scale_up(2, 3, t(100.0)),
                EngineEvent::scale_down(2, 2, t(200.0)),
                EngineEvent::admitted(0, 0, 10, false, t(0.0)),
                EngineEvent::prefill_done(0, 1.0, t(1.0)),
                EngineEvent::retired(0, 12, t(300.0)),
            ],
        );
        let v = c.finish(300.0, 0.0, BASIS).metrics();
        // 2 x 300 s + 1 x 100 s.
        assert!((v.instance_hours - 700.0 / 3600.0).abs() < 1e-12);
    }
}
