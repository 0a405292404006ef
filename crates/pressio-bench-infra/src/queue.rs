//! Worker-pool task queue with data-affinity scheduling, retry-based fault
//! tolerance, and checkpoint skip — the single-node analog of the paper's
//! LibDistributed-based MPI queue (§4.3).
//!
//! Scheduling: "as data loading times tend to dominate task runtimes ... we
//! attempt to schedule as many jobs with the same data to the same
//! workers". Here each task carries an `affinity_key` (normally the dataset
//! index) and, in affinity mode, lands on worker `key % workers`.
//! Fault tolerance: a panicking or erroring task is retried (up to a cap)
//! on a different worker, with optional exponential backoff between
//! attempts; a worker thread that dies outright (simulating a crashed
//! node) is detected by a supervisor in the collector loop, restarted,
//! and its in-flight tasks are requeued — results are reported per task,
//! never lost. Failpoints (`queue:task.err` / `queue:task.panic` /
//! `queue:task.delay` / `queue:worker.crash`) let chaos tests drive every
//! one of those paths deterministically.

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use pressio_core::error::Error;
use pressio_core::Options;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// One unit of work.
#[derive(Debug, Clone)]
pub struct Task {
    /// Unique id (also the checkpoint key).
    pub id: String,
    /// Affinity key: tasks sharing it prefer the same worker.
    pub affinity_key: u64,
    /// Task configuration handed to the worker function.
    pub config: Options,
    /// Id of the task that spawned this one, if it entered the queue as a
    /// dynamic follow-up. [`run_tasks_dynamic`] stamps this automatically
    /// on unstamped follow-ups and exports each edge to the trace, so the
    /// run's dependency graph is reconstructible afterwards.
    pub parent: Option<String>,
}

impl Task {
    /// A root task (no parent).
    pub fn new(id: impl Into<String>, affinity_key: u64, config: Options) -> Task {
        Task {
            id: id.into(),
            affinity_key,
            config,
            parent: None,
        }
    }

    /// Set an explicit parent (follow-ups usually get one stamped by the
    /// pool instead).
    pub fn with_parent(mut self, parent: impl Into<String>) -> Task {
        self.parent = Some(parent.into());
        self
    }
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// `affinity_key % workers` — repeated-data locality.
    DataAffinity,
    /// Round-robin, ignoring affinity.
    RoundRobin,
}

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker count (≥ 1; the paper's single-node fallback is 1).
    pub workers: usize,
    /// Scheduling policy.
    pub scheduling: Scheduling,
    /// Attempts per task before reporting failure (≥ 1).
    pub max_attempts: usize,
    /// Base delay before retry attempts (0 = retry immediately). Attempt
    /// `n` waits `backoff_ms(base, 32·base, n, task-id)` — exponential
    /// with deterministic jitter, so transient faults (overloaded disk,
    /// racing writers) see spaced-out retries instead of a hot loop.
    pub retry_backoff_ms: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 3,
            retry_backoff_ms: 0,
        }
    }
}

/// Outcome of one task.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// The task id.
    pub id: String,
    /// Result value or the final error.
    pub result: Result<Options, Error>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// Worker that produced the final outcome.
    pub worker: usize,
}

/// Execution statistics (for the affinity ablation).
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker count of *distinct* affinity keys it touched: with
    /// affinity scheduling the total across workers approaches the number
    /// of distinct keys; with round-robin it approaches `keys × workers`
    /// (every worker loads every dataset).
    pub distinct_keys_per_worker: Vec<usize>,
    /// Total retries performed.
    pub retries: usize,
}

impl PoolStats {
    /// Total dataset-load events implied by the schedule (the quantity
    /// data-affinity minimizes).
    pub fn total_loads(&self) -> usize {
        self.distinct_keys_per_worker.iter().sum()
    }
}

/// Shared worker callback: `(task, worker_id) -> result`.
pub type WorkerFn = Arc<dyn Fn(&Task, usize) -> Result<Options, Error> + Send + Sync>;

/// Shared worker callback for [`run_tasks_dynamic`]: may spawn follow-ups.
pub type DynamicWorkerFn = Arc<dyn Fn(&Task, usize) -> Result<DynamicOutcome, Error> + Send + Sync>;

/// Run `tasks` on a pool. `worker_fn(task, worker_id)` runs on pool
/// threads; panics are caught and treated as task failures (the paper's
/// motivation: buggy metrics implementations surfaced by diverse data must
/// not take down the run).
pub fn run_tasks(
    tasks: Vec<Task>,
    config: PoolConfig,
    worker_fn: WorkerFn,
) -> (Vec<TaskOutcome>, PoolStats) {
    let workers = config.workers.max(1);
    let max_attempts = config.max_attempts.max(1);
    let backoff_base = config.retry_backoff_ms;

    struct Attempt {
        task: Task,
        attempt: usize,
        exclude_worker: Option<usize>,
    }

    // Worker threads return the wall time spent inside tasks, so the pool
    // can report per-worker utilization gauges. A worker that hits the
    // `queue:worker.crash` failpoint dies without reporting its current
    // attempt — exactly what a crashed node looks like to the collector.
    fn spawn_worker(
        w: usize,
        worker_fn: WorkerFn,
        result_tx: Sender<(TaskOutcome, Option<Attempt>)>,
        max_attempts: usize,
        backoff_base: u64,
    ) -> (Sender<Attempt>, std::thread::JoinHandle<f64>) {
        let (tx, rx) = unbounded::<Attempt>();
        let handle = std::thread::spawn(move || -> f64 {
            let mut busy_ms = 0.0f64;
            for attempt in rx {
                if pressio_faults::check("queue:worker.crash").is_some() {
                    pressio_obs::add_counter("queue:worker.crashed", 1);
                    return busy_ms; // die with `attempt` unreported
                }
                let wait = pressio_faults::backoff_ms(
                    backoff_base,
                    backoff_base.saturating_mul(32),
                    attempt.attempt,
                    &attempt.task.id,
                );
                if wait > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(wait));
                }
                let task_start = std::time::Instant::now();
                let outcome = {
                    let _span = pressio_obs::span("queue:task");
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        pressio_faults::inject("queue:task.delay")?; // straggler
                        pressio_faults::inject("queue:task.panic")?;
                        pressio_faults::inject("queue:task.err")?;
                        worker_fn(&attempt.task, w)
                    }))
                };
                busy_ms += task_start.elapsed().as_secs_f64() * 1e3;
                let result = match outcome {
                    Ok(r) => r,
                    Err(panic) => {
                        pressio_obs::add_counter("queue:panic", 1);
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "worker panicked".to_string());
                        Err(Error::TaskFailed(msg))
                    }
                };
                let failed = result.is_err();
                let retry = if failed && attempt.attempt < max_attempts {
                    Some(Attempt {
                        task: attempt.task.clone(),
                        attempt: attempt.attempt + 1,
                        exclude_worker: Some(w),
                    })
                } else {
                    None
                };
                let out = TaskOutcome {
                    id: attempt.task.id.clone(),
                    result,
                    attempts: attempt.attempt,
                    worker: w,
                };
                if result_tx.send((out, retry)).is_err() {
                    break;
                }
            }
            busy_ms
        });
        (tx, handle)
    }

    let pool_start = std::time::Instant::now();
    let (result_tx, result_rx) = unbounded::<(TaskOutcome, Option<Attempt>)>();
    let mut worker_txs: Vec<Sender<Attempt>> = Vec::with_capacity(workers);
    // One live handle per slot; reaped handles accumulate their busy time
    // into `busy_acc` so restarts don't lose utilization data.
    let mut handles: Vec<Option<std::thread::JoinHandle<f64>>> = Vec::with_capacity(workers);
    let mut busy_acc = vec![0.0f64; workers];
    for w in 0..workers {
        let (tx, handle) = spawn_worker(
            w,
            worker_fn.clone(),
            result_tx.clone(),
            max_attempts,
            backoff_base,
        );
        worker_txs.push(tx);
        handles.push(Some(handle));
    }

    // dispatch — every in-flight attempt is remembered in `assigned` so a
    // crashed worker's tasks can be requeued by the supervisor below
    let total = tasks.len();
    let mut key_seen: Vec<std::collections::HashSet<u64>> =
        (0..workers).map(|_| Default::default()).collect();
    let mut rr = 0usize;
    let mut assigned: HashMap<String, (usize, Task, usize)> = HashMap::new(); // id -> (worker, task, attempt)
    let dispatch = |attempt: Attempt,
                    rr: &mut usize,
                    key_seen: &mut Vec<std::collections::HashSet<u64>>,
                    worker_txs: &[Sender<Attempt>],
                    assigned: &mut HashMap<String, (usize, Task, usize)>| {
        let mut w = match config.scheduling {
            Scheduling::DataAffinity => (attempt.task.affinity_key % workers as u64) as usize,
            Scheduling::RoundRobin => {
                let v = *rr % workers;
                *rr += 1;
                v
            }
        };
        if Some(w) == attempt.exclude_worker && workers > 1 {
            w = (w + 1) % workers;
        }
        key_seen[w].insert(attempt.task.affinity_key);
        assigned.insert(
            attempt.task.id.clone(),
            (w, attempt.task.clone(), attempt.attempt),
        );
        // a closed channel means worker `w` crashed and the supervisor scan
        // below has not restarted it yet; the attempt is already in
        // `assigned`, so that scan requeues it with the worker's other orphans
        let _ = worker_txs[w].send(attempt);
    };
    for task in tasks {
        dispatch(
            Attempt {
                task,
                attempt: 1,
                exclude_worker: None,
            },
            &mut rr,
            &mut key_seen,
            &worker_txs,
            &mut assigned,
        );
    }

    // collect, re-dispatching retries; double as supervisor — a worker
    // slot whose thread finished while work remains has crashed, so
    // restart it and requeue whatever it held
    let mut final_outcomes: HashMap<String, TaskOutcome> = HashMap::new();
    let mut retries = 0usize;
    let mut done = 0usize;
    while done < total {
        let msg = result_rx.recv_timeout(std::time::Duration::from_millis(25));
        match msg {
            Ok((outcome, retry)) => {
                assigned.remove(&outcome.id);
                match retry {
                    Some(attempt) => {
                        retries += 1;
                        pressio_obs::add_counter("queue:retry", 1);
                        dispatch(attempt, &mut rr, &mut key_seen, &worker_txs, &mut assigned);
                    }
                    None => {
                        // insert-once: a report racing a crash-requeue can
                        // complete the same id twice; count it once
                        if final_outcomes.insert(outcome.id.clone(), outcome).is_none() {
                            done += 1;
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                for w in 0..workers {
                    let dead = handles[w].as_ref().is_some_and(|h| h.is_finished());
                    if !dead {
                        continue;
                    }
                    if let Some(h) = handles[w].take() {
                        busy_acc[w] += h.join().unwrap_or(0.0);
                    }
                    pressio_obs::add_counter("queue:worker.restarted", 1);
                    let (tx, handle) = spawn_worker(
                        w,
                        worker_fn.clone(),
                        result_tx.clone(),
                        max_attempts,
                        backoff_base,
                    );
                    worker_txs[w] = tx;
                    handles[w] = Some(handle);
                    // requeue every attempt the dead worker still held
                    // (same attempt number — a crash is not the task's
                    // fault), spread away from the restarted slot
                    let orphans: Vec<(Task, usize)> = assigned
                        .values()
                        .filter(|(ow, _, _)| *ow == w)
                        .map(|(_, task, attempt)| (task.clone(), *attempt))
                        .collect();
                    for (task, attempt) in orphans {
                        pressio_obs::add_counter("queue:task.requeued", 1);
                        dispatch(
                            Attempt {
                                task,
                                attempt,
                                exclude_worker: None,
                            },
                            &mut rr,
                            &mut key_seen,
                            &worker_txs,
                            &mut assigned,
                        );
                    }
                }
            }
        }
    }
    drop(result_tx);
    drop(worker_txs);
    let busy: Vec<f64> = handles
        .into_iter()
        .zip(busy_acc)
        .map(|(h, acc)| acc + h.and_then(|h| h.join().ok()).unwrap_or(0.0))
        .collect();
    if pressio_obs::is_enabled() {
        let wall_ms = pool_start.elapsed().as_secs_f64() * 1e3;
        pressio_obs::set_gauge("queue:pool.wall_ms", wall_ms);
        for (w, busy_ms) in busy.iter().enumerate() {
            pressio_obs::set_gauge(&format!("queue:worker.{w}.busy_ms"), *busy_ms);
            if wall_ms > 0.0 {
                pressio_obs::set_gauge(&format!("queue:worker.{w}.utilization"), busy_ms / wall_ms);
            }
        }
    }
    let mut outcomes: Vec<TaskOutcome> = final_outcomes.into_values().collect();
    outcomes.sort_by(|a, b| a.id.cmp(&b.id));
    let stats = PoolStats {
        distinct_keys_per_worker: key_seen.iter().map(|s| s.len()).collect(),
        retries,
    };
    (outcomes, stats)
}

/// Result of one dynamic task: a value plus follow-up tasks to enqueue.
///
/// The paper's §3 faults existing workflow systems for lacking "the ability
/// to dynamically add dependencies to currently running jobs as
/// invalidations require additional computation" — this is that ability: a
/// task that discovers its metric was invalidated can spawn the
/// recomputation into the same running pool.
pub struct DynamicOutcome {
    /// The task's result value.
    pub value: Options,
    /// Tasks to add to the queue (scheduled with the same policy).
    pub follow_ups: Vec<Task>,
}

/// Like [`run_tasks`], but the worker may spawn follow-up tasks that join
/// the live queue. Follow-ups may themselves spawn follow-ups; the pool
/// drains when no task or follow-up remains. Retries apply to every task.
/// A safety cap bounds total scheduled tasks against runaway spawning.
pub fn run_tasks_dynamic(
    tasks: Vec<Task>,
    config: PoolConfig,
    max_total_tasks: usize,
    worker_fn: DynamicWorkerFn,
) -> (Vec<TaskOutcome>, PoolStats) {
    // queue of pending root-level work, fed by both the caller and
    // completed tasks' follow-ups; executed in waves through run_tasks
    let mut pending = tasks;
    let mut scheduled = 0usize;
    let mut all_outcomes: Vec<TaskOutcome> = Vec::new();
    let mut stats_acc = PoolStats::default();
    let follow_up_store: Arc<parking_lot::Mutex<Vec<Task>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    while !pending.is_empty() {
        let take = pending.len().min(max_total_tasks.saturating_sub(scheduled));
        if take == 0 {
            // cap reached: report the rest as failed rather than hanging
            for task in pending.drain(..) {
                all_outcomes.push(TaskOutcome {
                    id: task.id,
                    result: Err(Error::TaskFailed(format!(
                        "task cap of {max_total_tasks} reached"
                    ))),
                    attempts: 0,
                    worker: 0,
                });
            }
            break;
        }
        let wave: Vec<Task> = pending.drain(..take).collect();
        scheduled += wave.len();
        let fu = follow_up_store.clone();
        let wf = worker_fn.clone();
        let (outcomes, stats) = run_tasks(
            wave,
            config,
            Arc::new(move |task, w| {
                let mut out = wf(task, w)?;
                if !out.follow_ups.is_empty() {
                    pressio_obs::add_counter(
                        "queue:follow_up_spawned",
                        out.follow_ups.len() as i64,
                    );
                    for follow_up in &mut out.follow_ups {
                        if follow_up.parent.is_none() {
                            follow_up.parent = Some(task.id.clone());
                        }
                        if let Some(parent) = &follow_up.parent {
                            pressio_obs::task_link(&follow_up.id, parent);
                        }
                    }
                    fu.lock().extend(out.follow_ups);
                }
                Ok(out.value)
            }),
        );
        all_outcomes.extend(outcomes);
        stats_acc.retries += stats.retries;
        if stats_acc.distinct_keys_per_worker.len() < stats.distinct_keys_per_worker.len() {
            stats_acc
                .distinct_keys_per_worker
                .resize(stats.distinct_keys_per_worker.len(), 0);
        }
        for (acc, v) in stats_acc
            .distinct_keys_per_worker
            .iter_mut()
            .zip(&stats.distinct_keys_per_worker)
        {
            *acc += v;
        }
        pending.extend(follow_up_store.lock().drain(..));
    }
    all_outcomes.sort_by(|a, b| a.id.cmp(&b.id));
    (all_outcomes, stats_acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn make_tasks(n: usize, keys: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                Task::new(
                    format!("task{i:03}"),
                    (i % keys) as u64,
                    Options::new().with("i", i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn all_tasks_complete() {
        let tasks = make_tasks(40, 5);
        let (outcomes, _) = run_tasks(
            tasks,
            PoolConfig::default(),
            Arc::new(|t: &Task, _w| Ok(Options::new().with("echo", t.config.get_u64("i")?))),
        );
        assert_eq!(outcomes.len(), 40);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.id, format!("task{i:03}"));
            assert_eq!(
                o.result.as_ref().unwrap().get_u64("echo").unwrap(),
                i as u64
            );
        }
    }

    #[test]
    fn affinity_scheduling_minimizes_distinct_loads() {
        // 5 keys is coprime with 4 workers, so round-robin smears every key
        // across all workers while affinity pins each to one
        let tasks = make_tasks(60, 5);
        let cfg = PoolConfig {
            workers: 4,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 1,
            retry_backoff_ms: 0,
        };
        let (_, affinity_stats) =
            run_tasks(tasks.clone(), cfg, Arc::new(|_t, _w| Ok(Options::new())));
        let cfg_rr = PoolConfig {
            scheduling: Scheduling::RoundRobin,
            ..cfg
        };
        let (_, rr_stats) = run_tasks(tasks, cfg_rr, Arc::new(|_t, _w| Ok(Options::new())));
        assert_eq!(affinity_stats.total_loads(), 5, "one worker per key");
        assert!(
            rr_stats.total_loads() > affinity_stats.total_loads(),
            "round-robin {} should exceed affinity {}",
            rr_stats.total_loads(),
            affinity_stats.total_loads()
        );
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let fail_first = Arc::new(AtomicUsize::new(0));
        let tasks = make_tasks(10, 10);
        let ff = fail_first.clone();
        let (outcomes, stats) = run_tasks(
            tasks,
            PoolConfig {
                workers: 3,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 3,
                retry_backoff_ms: 0,
            },
            Arc::new(move |t: &Task, _w| {
                // task 4 fails on its first attempt only
                if t.id == "task004" && ff.fetch_add(1, Ordering::SeqCst) == 0 {
                    return Err(Error::TaskFailed("transient".into()));
                }
                Ok(Options::new())
            }),
        );
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let retried = outcomes.iter().find(|o| o.id == "task004").unwrap();
        assert_eq!(retried.attempts, 2);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn permanent_failures_reported_after_max_attempts() {
        let tasks = make_tasks(5, 5);
        let (outcomes, stats) = run_tasks(
            tasks,
            PoolConfig {
                workers: 2,
                scheduling: Scheduling::RoundRobin,
                max_attempts: 3,
                retry_backoff_ms: 0,
            },
            Arc::new(|t: &Task, _w| {
                if t.id == "task002" {
                    Err(Error::TaskFailed("permanent".into()))
                } else {
                    Ok(Options::new())
                }
            }),
        );
        let failed = outcomes.iter().find(|o| o.id == "task002").unwrap();
        assert!(failed.result.is_err());
        assert_eq!(failed.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(outcomes.iter().filter(|o| o.result.is_ok()).count(), 4);
    }

    #[test]
    fn panicking_tasks_are_contained() {
        let tasks = make_tasks(6, 6);
        let (outcomes, _) = run_tasks(
            tasks,
            PoolConfig {
                workers: 2,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 2,
                retry_backoff_ms: 0,
            },
            Arc::new(|t: &Task, _w| {
                if t.id == "task003" {
                    panic!("metric implementation bug");
                }
                Ok(Options::new())
            }),
        );
        assert_eq!(outcomes.len(), 6);
        let crashed = outcomes.iter().find(|o| o.id == "task003").unwrap();
        match &crashed.result {
            Err(Error::TaskFailed(msg)) => assert!(msg.contains("bug")),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        // the other five still succeeded
        assert_eq!(outcomes.iter().filter(|o| o.result.is_ok()).count(), 5);
    }

    #[test]
    fn retry_moves_to_a_different_worker() {
        let tasks = vec![Task::new("t", 0, Options::new())];
        let first_worker = Arc::new(AtomicUsize::new(usize::MAX));
        let fw = first_worker.clone();
        let (outcomes, _) = run_tasks(
            tasks,
            PoolConfig {
                workers: 2,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 2,
                retry_backoff_ms: 0,
            },
            Arc::new(move |_t, w| {
                if fw
                    .compare_exchange(usize::MAX, w, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    Err(Error::TaskFailed("first attempt".into()))
                } else {
                    Ok(Options::new().with("worker", w as u64))
                }
            }),
        );
        let o = &outcomes[0];
        let final_worker = o.result.as_ref().unwrap().get_u64("worker").unwrap() as usize;
        assert_ne!(final_worker, first_worker.load(Ordering::SeqCst));
    }

    #[test]
    fn dynamic_follow_ups_run_in_the_same_pool() {
        // task d00 discovers an invalidation and spawns two recomputations
        let tasks = vec![Task::new("d00", 0, Options::new().with("spawn", true))];
        let (outcomes, _) = run_tasks_dynamic(
            tasks,
            PoolConfig {
                workers: 2,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            100,
            Arc::new(|task: &Task, _w| {
                let spawn = task.config.get_bool_opt("spawn")?.unwrap_or(false);
                let follow_ups = if spawn {
                    vec![
                        Task::new("d00/recompute-a", 0, Options::new()),
                        Task::new("d00/recompute-b", 1, Options::new()),
                    ]
                } else {
                    Vec::new()
                };
                Ok(DynamicOutcome {
                    value: Options::new().with("done", true),
                    follow_ups,
                })
            }),
        );
        let ids: Vec<&str> = outcomes.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, vec!["d00", "d00/recompute-a", "d00/recompute-b"]);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
    }

    #[test]
    fn follow_ups_are_stamped_with_their_spawner() {
        // chain d0 -> d0/fix -> d0/fix/verify: each follow-up must arrive
        // at its worker carrying the id of the task that spawned it
        let seen: Arc<parking_lot::Mutex<HashMap<String, Option<String>>>> =
            Arc::new(parking_lot::Mutex::new(HashMap::new()));
        let seen_in = seen.clone();
        let tasks = vec![Task::new("d0", 0, Options::new())];
        let (outcomes, _) = run_tasks_dynamic(
            tasks,
            PoolConfig {
                workers: 2,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            100,
            Arc::new(move |task: &Task, _w| {
                seen_in.lock().insert(task.id.clone(), task.parent.clone());
                let follow_ups = match task.id.as_str() {
                    "d0" => vec![Task::new("d0/fix", 0, Options::new())],
                    "d0/fix" => vec![Task::new("d0/fix/verify", 1, Options::new())],
                    _ => Vec::new(),
                };
                Ok(DynamicOutcome {
                    value: Options::new(),
                    follow_ups,
                })
            }),
        );
        assert_eq!(outcomes.len(), 3);
        let seen = seen.lock();
        assert_eq!(seen["d0"], None);
        assert_eq!(seen["d0/fix"].as_deref(), Some("d0"));
        assert_eq!(seen["d0/fix/verify"].as_deref(), Some("d0/fix"));
    }

    #[test]
    fn explicit_parent_is_preserved() {
        // a worker may attribute a follow-up to a different logical parent;
        // the pool must not overwrite it
        let parent_seen: Arc<parking_lot::Mutex<Option<String>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let ps = parent_seen.clone();
        let (outcomes, _) = run_tasks_dynamic(
            vec![Task::new("root", 0, Options::new())],
            PoolConfig {
                workers: 1,
                scheduling: Scheduling::RoundRobin,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            10,
            Arc::new(move |task: &Task, _w| {
                let follow_ups = if task.id == "root" {
                    vec![Task::new("child", 0, Options::new()).with_parent("logical-origin")]
                } else {
                    *ps.lock() = task.parent.clone();
                    Vec::new()
                };
                Ok(DynamicOutcome {
                    value: Options::new(),
                    follow_ups,
                })
            }),
        );
        assert_eq!(outcomes.len(), 2);
        assert_eq!(parent_seen.lock().as_deref(), Some("logical-origin"));
    }

    #[test]
    fn dynamic_task_cap_prevents_runaway_spawning() {
        // every task spawns another: the cap must end the run with errors,
        // not hang forever
        let tasks = vec![Task::new("t0000", 0, Options::new().with("n", 0u64))];
        let (outcomes, _) = run_tasks_dynamic(
            tasks,
            PoolConfig {
                workers: 1,
                scheduling: Scheduling::RoundRobin,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            10,
            Arc::new(|task: &Task, _w| {
                let n = task.config.get_u64("n")?;
                Ok(DynamicOutcome {
                    value: Options::new(),
                    follow_ups: vec![Task::new(
                        format!("t{:04}", n + 1),
                        0,
                        Options::new().with("n", n + 1),
                    )],
                })
            }),
        );
        assert_eq!(outcomes.iter().filter(|o| o.result.is_ok()).count(), 10);
        assert_eq!(outcomes.iter().filter(|o| o.result.is_err()).count(), 1);
    }

    #[test]
    fn single_worker_fallback_works() {
        let tasks = make_tasks(8, 3);
        let (outcomes, _) = run_tasks(
            tasks,
            PoolConfig {
                workers: 1,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            Arc::new(|_t, _w| Ok(Options::new())),
        );
        assert_eq!(outcomes.len(), 8);
    }
}
