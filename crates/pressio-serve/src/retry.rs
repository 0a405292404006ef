//! The one retry budget and the one outcome classifier behind every
//! retrying caller ([`crate::Client::call_resilient`] and
//! [`crate::ResilientStreamSender`]).
//!
//! A caller classifies each exchange and, when it is worth another try,
//! spends an attempt: that bumps the caller's counter and sleeps the
//! deterministic backoff + jitter of `pressio_faults::backoff_ms`.
//! Reconnects, resends and resumes of one operation draw on one budget,
//! so a policy of N attempts means N tries in total, whatever failed.

use crate::protocol;
use pressio_core::error::{Error, Result};
use pressio_core::Options;

/// Retry budget and backoff shape for one operation.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the second attempt, doubling per attempt after.
    pub base_ms: u64,
    /// Ceiling on any single backoff.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_ms: 10,
            max_ms: 500,
        }
    }
}

/// What one exchange amounted to, for a caller deciding whether to go again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// A response to act on (success, or an error resending would repeat).
    Done,
    /// Healthy but busy ([`protocol::is_retryable`]): resend as is.
    Busy,
    /// Transport failure or torn stream: the connection is in an unknown
    /// state (possibly mid-frame) and must be replaced first.
    Broken,
    /// A local failure no retry can fix.
    Fatal,
}

/// Classify one exchange.
pub(crate) fn classify(outcome: &Result<Options>) -> Outcome {
    match outcome {
        Ok(resp) if protocol::is_retryable(resp) => Outcome::Busy,
        Ok(_) => Outcome::Done,
        Err(Error::Io(_)) | Err(Error::CorruptStream(_)) => Outcome::Broken,
        Err(_) => Outcome::Fatal,
    }
}

/// The attempts of one operation under a [`RetryPolicy`].
pub(crate) struct RetryBudget {
    policy: RetryPolicy,
    attempt: usize,
    counter: &'static str,
}

impl RetryBudget {
    /// A fresh budget on its first attempt; every retry bumps `counter`.
    pub(crate) fn new(policy: &RetryPolicy, counter: &'static str) -> RetryBudget {
        RetryBudget {
            policy: *policy,
            attempt: 1,
            counter,
        }
    }

    /// The attempt now running (1-based).
    pub(crate) fn attempt(&self) -> usize {
        self.attempt
    }

    /// The wait before `attempt`, a pure function of `(key, attempt)`.
    fn wait_ms(&self, key: &str) -> u64 {
        pressio_faults::backoff_ms(self.policy.base_ms, self.policy.max_ms, self.attempt, key)
    }

    /// Spend one attempt: bump the counter and sleep the backoff for it.
    /// `false` (and nothing spent) once the budget is exhausted.
    pub(crate) fn spend(&mut self, key: &str) -> bool {
        if self.attempt >= self.policy.max_attempts {
            return false;
        }
        self.attempt += 1;
        pressio_obs::add_counter(self.counter, 1);
        let wait = self.wait_ms(key);
        if wait > 0 {
            std::thread::sleep(std::time::Duration::from_millis(wait));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{code, error_response};

    const ALL_CODES: [&str; 5] = [
        code::OVERLOADED,
        code::DEADLINE_EXCEEDED,
        code::BAD_REQUEST,
        code::NOT_FOUND,
        code::INTERNAL,
    ];

    #[test]
    fn classifier_covers_every_code_and_error_kind() {
        for c in ALL_CODES {
            let want = match c {
                code::OVERLOADED | code::DEADLINE_EXCEEDED => Outcome::Busy,
                _ => Outcome::Done,
            };
            assert_eq!(classify(&Ok(error_response(c, "x"))), want, "{c}");
        }
        assert_eq!(
            classify(&Ok(Options::new().with("serve:type", "pong"))),
            Outcome::Done
        );
        // a retryable code on a non-error response is not an error
        assert_eq!(
            classify(&Ok(Options::new()
                .with("serve:type", "stats")
                .with("serve:code", code::OVERLOADED))),
            Outcome::Done
        );
        for broken in [Error::Io("eof".into()), Error::CorruptStream("torn".into())] {
            assert_eq!(classify(&Err(broken)), Outcome::Broken);
        }
        for fatal in [
            Error::Serialization("bad".into()),
            Error::TaskFailed("no".into()),
            Error::Unsupported("nope".into()),
            Error::MissingOption("k".into()),
            Error::UnknownPlugin {
                kind: "model",
                name: "m".into(),
            },
        ] {
            assert_eq!(classify(&Err(fatal)), Outcome::Fatal);
        }
    }

    #[test]
    fn budget_allows_exactly_max_attempts() {
        for max_attempts in [1usize, 2, 4, 7] {
            let policy = RetryPolicy {
                max_attempts,
                base_ms: 0,
                max_ms: 0,
            };
            let mut budget = RetryBudget::new(&policy, "test:retry.count");
            let mut tries = 1;
            while budget.spend("k") {
                tries += 1;
            }
            assert_eq!(tries, max_attempts);
            assert_eq!(budget.attempt(), max_attempts);
            // exhausted stays exhausted
            assert!(!budget.spend("k"));
            assert_eq!(budget.attempt(), max_attempts);
        }
    }

    #[test]
    fn every_spend_bumps_the_callers_counter_and_nothing_else() {
        // the only test in this binary that installs a collector; the
        // counter name is its own, so concurrent tests cannot disturb it
        let collector = std::sync::Arc::new(pressio_obs::Collector::new());
        pressio_obs::install(collector.clone());
        let policy = RetryPolicy {
            max_attempts: 4,
            base_ms: 0,
            max_ms: 0,
        };
        let mut budget = RetryBudget::new(&policy, "test:retry.bumps");
        // a failed reconnect and a busy resend are the same spend
        assert!(budget.spend("stream.connect"));
        assert!(budget.spend("stream.chunk"));
        assert!(budget.spend("stream.resume"));
        assert!(!budget.spend("stream.chunk"));
        pressio_obs::uninstall();
        assert_eq!(collector.report().counters["test:retry.bumps"], 3);
    }

    #[test]
    fn waits_are_the_deterministic_backoff_of_the_attempt_being_started() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_ms: 2,
            max_ms: 8,
        };
        let mut a = RetryBudget::new(&policy, "test:retry.wait");
        let mut b = RetryBudget::new(&policy, "test:retry.wait");
        assert_eq!(a.wait_ms("k"), 0, "the first attempt never waits");
        for attempt in 2..=5 {
            let started = std::time::Instant::now();
            assert!(a.spend("k"));
            let waited = started.elapsed().as_millis() as u64;
            assert!(b.spend("k"));
            let want = pressio_faults::backoff_ms(2, 8, attempt, "k");
            assert_eq!(a.wait_ms("k"), want);
            assert_eq!(b.wait_ms("k"), want, "same (key, attempt), same wait");
            assert!((1..=8).contains(&want), "{want}");
            assert!(waited >= want, "slept {waited} ms of {want}");
        }
    }
}
