//! Fault-injection tests for the task queue: worker crashes, task panics,
//! injected errors, and retry backoff.
//!
//! These configure the process-global `pressio-faults` registry, so they
//! live in their own integration-test binary and serialize through a
//! local mutex.

use pressio_bench_infra::queue::{run_tasks, PoolConfig, Scheduling, Task};
use pressio_core::error::Error;
use pressio_core::Options;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn tasks(n: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            Task::new(
                format!("t{i}"),
                i as u64 % 3,
                Options::new().with("i", i as u64),
            )
        })
        .collect()
}

fn echo_worker() -> pressio_bench_infra::queue::WorkerFn {
    Arc::new(|task: &Task, _w: usize| {
        let i = task.config.get_u64("i")?;
        Ok(Options::new().with("result", i * 10))
    })
}

#[test]
fn crashed_worker_is_restarted_and_its_tasks_requeued() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::configure("queue:worker.crash=crash,times=1").unwrap();
    let (outcomes, _stats) = run_tasks(
        tasks(12),
        PoolConfig {
            workers: 3,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 2,
            retry_backoff_ms: 0,
        },
        echo_worker(),
    );
    let crashes = pressio_faults::fired("queue:worker.crash");
    pressio_faults::clear();
    assert_eq!(crashes, 1, "exactly one worker crashed");
    assert_eq!(outcomes.len(), 12, "every task reports exactly once");
    for o in &outcomes {
        let i: u64 = o.id[1..].parse().unwrap();
        assert_eq!(
            o.result.as_ref().unwrap().get_u64("result").unwrap(),
            i * 10,
            "task {} computed the right value despite the crash",
            o.id
        );
    }
}

/// A retry dispatched to a worker that has crashed but not yet been
/// restarted (the supervisor scan runs every 25 ms) used to panic the
/// pool on the closed channel. The survivor fails its first attempt only
/// once the other worker is known dead, so the retry — which excludes the
/// survivor — is sent into the dead worker's slot.
#[test]
fn dispatch_to_a_crashed_worker_is_left_for_the_supervisor_scan() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::configure("queue:worker.crash=crash,times=1").unwrap();
    let failed_once = Arc::new(AtomicBool::new(false));
    let echo = echo_worker();
    let (outcomes, stats) = run_tasks(
        tasks(2),
        PoolConfig {
            workers: 2,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 2,
            retry_backoff_ms: 0,
        },
        Arc::new(move |task: &Task, w: usize| {
            if !failed_once.swap(true, Ordering::SeqCst) {
                let deadline = Instant::now() + Duration::from_secs(5);
                while pressio_faults::fired("queue:worker.crash") == 0 && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                // let the crashed thread finish dropping its channel
                std::thread::sleep(Duration::from_millis(5));
                return Err(Error::TaskFailed("first attempt fails".into()));
            }
            echo(task, w)
        }),
    );
    let crashes = pressio_faults::fired("queue:worker.crash");
    pressio_faults::clear();
    assert_eq!(crashes, 1);
    assert_eq!(stats.retries, 1);
    assert_eq!(outcomes.len(), 2, "every task reports exactly once");
    for o in &outcomes {
        let i: u64 = o.id[1..].parse().unwrap();
        assert_eq!(
            o.result.as_ref().unwrap().get_u64("result").unwrap(),
            i * 10
        );
    }
}

#[test]
fn task_panic_is_contained_and_retried_to_success() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::configure("queue:task.panic=panic,times=1").unwrap();
    let (outcomes, _stats) = run_tasks(
        tasks(6),
        PoolConfig {
            workers: 2,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 3,
            retry_backoff_ms: 0,
        },
        echo_worker(),
    );
    let panics_fired = pressio_faults::fired("queue:task.panic");
    pressio_faults::clear();
    assert_eq!(panics_fired, 1);
    assert_eq!(outcomes.len(), 6);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    // exactly one task needed a second attempt
    let retried: Vec<_> = outcomes.iter().filter(|o| o.attempts == 2).collect();
    assert_eq!(retried.len(), 1, "{outcomes:?}");
}

#[test]
fn persistent_injected_error_exhausts_the_attempt_budget() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::configure("queue:task.err=err").unwrap(); // fires every time
    let (outcomes, _stats) = run_tasks(
        tasks(1),
        PoolConfig {
            workers: 1,
            scheduling: Scheduling::RoundRobin,
            max_attempts: 2,
            retry_backoff_ms: 0,
        },
        echo_worker(),
    );
    let fired = pressio_faults::fired("queue:task.err");
    pressio_faults::clear();
    assert_eq!(fired, 2, "one fire per attempt");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].attempts, 2);
    let err = outcomes[0].result.as_ref().unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
}

#[test]
fn retry_backoff_spaces_out_attempts() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::configure("queue:task.err=err,times=1").unwrap();
    let base_ms = 60;
    // the second attempt waits backoff_ms(base, 32*base, 2, id) ∈ [base/2, base]
    let expected_min = base_ms / 2;
    let start = std::time::Instant::now();
    let (outcomes, _stats) = run_tasks(
        tasks(1),
        PoolConfig {
            workers: 1,
            scheduling: Scheduling::RoundRobin,
            max_attempts: 3,
            retry_backoff_ms: base_ms,
        },
        echo_worker(),
    );
    let elapsed = start.elapsed();
    pressio_faults::clear();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].result.is_ok());
    assert_eq!(outcomes[0].attempts, 2);
    assert!(
        elapsed.as_millis() as u64 >= expected_min,
        "retry fired after {elapsed:?}, expected ≥ {expected_min}ms of backoff"
    );
}

#[test]
fn straggler_delay_slows_but_never_corrupts_results() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::configure("queue:task.delay=delay,ms=40,times=2").unwrap();
    let (outcomes, _stats) = run_tasks(
        tasks(8),
        PoolConfig {
            workers: 4,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 1,
            retry_backoff_ms: 0,
        },
        echo_worker(),
    );
    let fired = pressio_faults::fired("queue:task.delay");
    pressio_faults::clear();
    assert_eq!(fired, 2);
    assert_eq!(outcomes.len(), 8);
    for o in &outcomes {
        let i: u64 = o.id[1..].parse().unwrap();
        assert_eq!(
            o.result.as_ref().unwrap().get_u64("result").unwrap(),
            i * 10
        );
    }
}
