//! A cheap process-relative monotonic clock.
//!
//! Every trace event carries a timestamp. `Instant` is monotonic but not
//! serializable; this module pins one `Instant` at first use and reports
//! nanoseconds since that origin as a plain `u64`, which packs into a ring
//! slot and renders directly as the Chrome `trace_event` `ts` field.
//!
//! [`paired`] is the one rule that turns repeated wall-clock runs into one
//! number: the benches, the observability experiments and the paper's own
//! ratio experiments all reduce their timed arms through it.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's trace origin (the first call wins the
/// race to define time zero). Monotonic; saturates at `u64::MAX` after
/// ~584 years of uptime.
#[must_use]
pub fn now_ns() -> u64 {
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Paired rounds: each of `rounds` rounds (at least one) calls `run(0)`, …,
/// `run(arms - 1)` back to back; each arm returns its sample of median `key`
/// (the upper middle for an even count, so two rounds keep the larger). Host
/// drift then hits every arm alike instead of masquerading as (or cancelling)
/// a cross-arm cost, and the median drops one-off outliers either way.
pub fn paired<T>(
    rounds: usize,
    arms: usize,
    key: impl Fn(&T) -> f64,
    mut run: impl FnMut(usize) -> T,
) -> Vec<T> {
    let mut samples: Vec<Vec<T>> = (0..arms).map(|_| Vec::new()).collect();
    for _ in 0..rounds.max(1) {
        for (arm, s) in samples.iter_mut().enumerate() {
            s.push(run(arm));
        }
    }
    let median = |mut s: Vec<T>| {
        s.sort_by(|a, b| key(a).total_cmp(&key(b)));
        s.swap_remove(s.len() / 2)
    };
    samples.into_iter().map(median).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn clock_advances_across_a_sleep() {
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = now_ns();
        assert!(b - a >= 1_000_000, "2 ms sleep advanced only {} ns", b - a);
    }

    /// [`paired`] over one arm whose round `r` yields the sample
    /// `(r, keys[r])`: which round's sample comes back.
    fn paired_pick(keys: &[f64]) -> (usize, f64) {
        let mut round = 0;
        let run = |_| {
            round += 1;
            (round - 1, keys[round - 1])
        };
        paired(keys.len(), 1, |s: &(usize, f64)| s.1, run)[0]
    }

    #[test]
    fn paired_calls_the_arms_round_robin() {
        let mut calls = Vec::new();
        let out = paired(
            3,
            4,
            |&arm: &usize| arm as f64,
            |arm| {
                calls.push(arm);
                arm
            },
        );
        assert_eq!(calls, [0, 1, 2, 3].repeat(3), "rounds × [0, …, arms-1]");
        assert_eq!(out, [0, 1, 2, 3], "one sample per arm, in arm order");
    }

    #[test]
    fn paired_returns_the_median_key_sample_past_an_outlier() {
        assert_eq!(paired_pick(&[5.0, 1e12, 4.0]), (0, 5.0));
        assert_eq!(paired_pick(&[4.0, 6.0, 1e-3]), (0, 4.0));
        assert_eq!(paired_pick(&[3.0, 1.0, 1e12, 4.0, 2.0]), (0, 3.0));
        assert_eq!(paired_pick(&[3.0, 1e-3, 5.0, 4.0, 2.0]), (0, 3.0));
    }

    #[test]
    fn paired_one_round_returns_its_only_sample() {
        assert_eq!(paired_pick(&[7.0]), (0, 7.0));
    }

    #[test]
    fn paired_two_rounds_return_the_larger_key_sample() {
        assert_eq!(paired_pick(&[2.0, 9.0]), (1, 9.0));
        assert_eq!(paired_pick(&[9.0, 2.0]), (0, 9.0));
    }
}
