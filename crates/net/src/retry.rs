//! Bounded retry backoff, shared by every reconnect/restart path.
//!
//! Two growth shapes cover the workspace's retry sites:
//!
//! * **Exponential with a cap** — the reactor's socket reconnects and the
//!   orchestrator's poll for a spawned node's control connection: the
//!   delay doubles per consecutive failure up to a ceiling, optionally
//!   scaled by a deterministic ±25% jitter so a cluster of peers
//!   reconnecting to a restarted node does not thunder in lockstep.
//! * **Linear** — orchestrator victim restarts: attempt `n` waits
//!   `n × step`, the original `synergy-cluster` restart discipline.
//!
//! A [`Backoff`] owns the failure counter: call
//! [`next_delay`](Backoff::next_delay) after each failure and sleep the
//! returned duration; `None` means the attempt budget is exhausted and the
//! caller should give up (surface a dead route, return the last error).
//! [`reset`](Backoff::reset) on success re-arms the full budget.

use std::time::Duration;

use synergy_des::DetRng;

/// How the delay grows with consecutive failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Growth {
    /// Delay `failures × step` (failure 1 waits one step, failure 2 two…).
    Linear {
        /// The per-attempt increment.
        step: Duration,
    },
    /// Delay `start × 2^(failures-1)`, capped.
    Exponential {
        /// First delay.
        start: Duration,
        /// Delay ceiling.
        cap: Duration,
    },
}

/// A bounded, optionally jittered retry schedule.
#[derive(Clone, Debug)]
pub struct Backoff {
    growth: Growth,
    /// Consecutive failures before the schedule is exhausted; `None`
    /// retries forever.
    max_attempts: Option<u32>,
    /// Deterministic ±25% jitter stream, when enabled.
    jitter: Option<DetRng>,
    failures: u32,
}

impl Backoff {
    /// A linear schedule: failure `n` waits `n × step`, up to
    /// `max_attempts` failures.
    pub fn linear(step: Duration, max_attempts: Option<u32>) -> Backoff {
        Backoff {
            growth: Growth::Linear { step },
            max_attempts,
            jitter: None,
            failures: 0,
        }
    }

    /// An exponential schedule: `start`, doubling per failure up to `cap`,
    /// for at most `max_attempts` failures.
    pub fn exponential(start: Duration, cap: Duration, max_attempts: Option<u32>) -> Backoff {
        Backoff {
            growth: Growth::Exponential { start, cap },
            max_attempts,
            jitter: None,
            failures: 0,
        }
    }

    /// Scales every delay by a deterministic jitter in `[75%, 125%]`,
    /// seeded so distinct callers (distinct seeds) draw distinct streams
    /// while the same seed reproduces the same schedule exactly.
    #[must_use]
    pub fn with_jitter(mut self, seed: u64) -> Backoff {
        self.jitter = Some(DetRng::new(seed).stream("retry-jitter"));
        self
    }

    /// Consecutive failures recorded since the last [`reset`](Self::reset).
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Whether the attempt budget is already spent.
    pub fn exhausted(&self) -> bool {
        self.max_attempts.is_some_and(|cap| self.failures >= cap)
    }

    /// Records one failure and returns how long to wait before the next
    /// attempt, or `None` when the budget is exhausted and the caller
    /// should give up.
    pub fn next_delay(&mut self) -> Option<Duration> {
        self.failures += 1;
        if self.max_attempts.is_some_and(|cap| self.failures >= cap) {
            return None;
        }
        let base = match self.growth {
            Growth::Linear { step } => step * self.failures,
            Growth::Exponential { start, cap } => {
                let doublings = self.failures.saturating_sub(1).min(30);
                (start * 2u32.pow(doublings)).min(cap)
            }
        };
        Some(match &mut self.jitter {
            // ±25%, quantized to whole percent so the sleep stays exact math.
            Some(rng) => base * rng.gen_range(75..=125u64) as u32 / 100,
            None => base,
        })
    }

    /// Re-arms the schedule after a success: the failure counter and the
    /// delay curve start over.
    pub fn reset(&mut self) {
        self.failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(backoff: &mut Backoff, n: usize) -> Vec<Option<Duration>> {
        (0..n).map(|_| backoff.next_delay()).collect()
    }

    #[test]
    fn linear_delays_grow_by_one_step_per_failure() {
        let mut b = Backoff::linear(Duration::from_millis(200), Some(4));
        assert_eq!(
            delays(&mut b, 4),
            vec![
                Some(Duration::from_millis(200)),
                Some(Duration::from_millis(400)),
                Some(Duration::from_millis(600)),
                None,
            ]
        );
        assert!(b.exhausted());
    }

    #[test]
    fn exponential_doubles_and_caps() {
        let mut b = Backoff::exponential(
            Duration::from_millis(10),
            Duration::from_millis(50),
            Some(6),
        );
        assert_eq!(
            delays(&mut b, 6),
            vec![
                Some(Duration::from_millis(10)),
                Some(Duration::from_millis(20)),
                Some(Duration::from_millis(40)),
                Some(Duration::from_millis(50)),
                Some(Duration::from_millis(50)),
                None,
            ]
        );
    }

    #[test]
    fn unbounded_schedule_never_exhausts() {
        let mut b = Backoff::exponential(Duration::from_millis(1), Duration::from_millis(2), None);
        for _ in 0..100 {
            assert!(b.next_delay().is_some());
        }
        assert!(!b.exhausted());
        assert_eq!(b.failures(), 100);
    }

    #[test]
    fn reset_rearms_the_full_budget_and_curve() {
        let mut b = Backoff::exponential(
            Duration::from_millis(10),
            Duration::from_millis(80),
            Some(3),
        );
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_some());
        b.reset();
        assert_eq!(b.failures(), 0);
        assert_eq!(b.next_delay(), Some(Duration::from_millis(10)));
    }

    #[test]
    fn jitter_stays_within_quarter_band_and_is_deterministic() {
        let base = Duration::from_millis(100);
        let mut a = Backoff::exponential(base, base, None).with_jitter(42);
        let mut b = Backoff::exponential(base, base, None).with_jitter(42);
        for _ in 0..50 {
            let d = a.next_delay().unwrap();
            assert_eq!(d, b.next_delay().unwrap(), "same seed, same schedule");
            assert!(d >= base * 3 / 4 && d <= base * 5 / 4, "{d:?} outside ±25%");
        }
        let mut c = Backoff::exponential(base, base, None).with_jitter(43);
        let differs = (0..50).any(|_| {
            let mut a = Backoff::exponential(base, base, None).with_jitter(42);
            a.next_delay() != c.next_delay()
        });
        assert!(differs, "distinct seeds draw distinct streams");
    }

    #[test]
    fn exponential_survives_extreme_failure_counts_without_overflow() {
        let mut b = Backoff::exponential(Duration::from_millis(1), Duration::from_secs(1), None);
        for _ in 0..10_000 {
            let d = b.next_delay().unwrap();
            assert!(d <= Duration::from_secs(1));
        }
    }
}
