//! The host's speed, measured with a fixed piece of work that belongs to
//! the benchmark, not to the program.
//!
//! The shared VMs this benchmark runs on change speed by a third from one
//! minute to the next, and the simulator slows down with them. A plain
//! integer loop barely notices these slow phases, but allocation-heavy
//! work does, about as much as the simulator. So the kernel here is
//! written like trace generation: random draws, one small vector per
//! session, a sort. It is timed between the run calls, and every host
//! figure is rescaled to a reference host on which one kernel call takes
//! [`NOMINAL_SECS`].

use std::time::Instant;

/// Kernel seconds on the reference host.
pub const NOMINAL_SECS: f64 = 1e-3;

/// Kernel calls per sample; the fastest is kept.
const CALLS: usize = 3;

/// Sessions the kernel generates per call.
const SESSIONS: usize = 1_500;

/// Host seconds of one kernel call: the fastest of [`CALLS`].
pub fn sample(seed: u64) -> f64 {
    let mut fastest = f64::INFINITY;
    for _ in 0..CALLS {
        let t0 = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(seed)));
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    fastest
}

/// Generates [`SESSIONS`] synthetic sessions (exponential gaps and turn
/// counts, log-normal lengths) and sorts them; returns a checksum.
fn kernel(seed: u64) -> u64 {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let exp = |mean: f64, u: f64| -(1.0 - u).ln() * mean;
    let mut sessions: Vec<Vec<[f64; 4]>> = Vec::new();
    let mut at = 0.0;
    for _ in 0..SESSIONS {
        at += exp(2.0, unit());
        let turns = 1 + exp(5.0, unit()) as usize;
        let mut session = Vec::new();
        for _ in 0..turns {
            let (u, v) = (unit(), unit());
            let normal = (2.0 * std::f64::consts::PI * u).cos() * (-2.0 * (1.0 - v).ln()).sqrt();
            session.push([at, (5.0 + normal).exp(), exp(30.0, unit()), normal]);
        }
        sessions.push(session);
    }
    sessions.sort_by(|a, b| b[0][1].total_cmp(&a[0][1]));
    let turns: usize = sessions.iter().map(Vec::len).sum();
    turns as u64 ^ sessions[0][0][1] as u64
}
