//! Bounded, batching request pipeline.
//!
//! Connection threads submit work items into a bounded queue; a fixed pool
//! of worker threads drains them in **batches grouped by batch key** (the
//! resolved model for predictions), so requests for the same model run their
//! feature extraction together on the `pressio_core::threads` pool. An item
//! carries a decoded request frame by default; the daemon queues typed jobs.
//! Backpressure is explicit: when the queue is full, [`Pipeline::submit`]
//! fails immediately and the caller answers `overloaded` — the queue can
//! never grow without bound.
//!
//! Every accepted item is guaranteed exactly one reply: workers answer
//! expired items with `deadline_exceeded` before processing, and shutdown
//! drains the queue before the workers exit.

use crate::protocol::{self, code};
use pressio_core::Options;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One queued request, carrying a `T`.
pub struct WorkItem<T = Options> {
    /// Requests sharing a batch key may be processed in one batch.
    pub batch_key: String,
    /// What the worker is handed: by default the decoded request frame.
    pub request: T,
    /// Absolute deadline; items popped after it answer `deadline_exceeded`.
    pub deadline: Instant,
    /// Reply channel back to the connection thread (capacity ≥ 1, so
    /// workers never block on a slow connection).
    pub reply: SyncSender<Options>,
}

impl<T> WorkItem<T> {
    /// Send the reply, ignoring a connection that already went away.
    pub fn respond(&self, response: Options) {
        let _ = self.reply.send(response);
    }

    /// Whether the item's deadline has already passed.
    pub fn expired(&self) -> bool {
        Instant::now() > self.deadline
    }

    /// Send the reply through [`checked`] against the item's deadline.
    pub fn respond_checked(&self, response: Options) {
        self.respond(checked(response, self.deadline));
    }
}

/// `response`, unless `deadline` passed while it was being computed: the
/// client has stopped waiting by contract, so a late success is replaced
/// with `deadline_exceeded` (error responses pass through — they carry
/// diagnostics worth delivering either way).
pub fn checked(response: Options, deadline: Instant) -> Options {
    let is_error = response.get_str_opt("serve:type").ok().flatten() == Some("error");
    if Instant::now() > deadline && !is_error {
        pressio_obs::add_counter("serve:deadline.exceeded_late", 1);
        return protocol::error_response(code::DEADLINE_EXCEEDED, "deadline passed during compute");
    }
    response
}

struct Shared<T> {
    queue: Mutex<VecDeque<WorkItem<T>>>,
    /// Signals workers that the queue gained an item or state changed.
    cond: Condvar,
    capacity: usize,
    batch_max: usize,
    /// Workers between claiming a batch and finishing it.
    busy: AtomicUsize,
    /// New submissions are rejected once draining starts. Set with
    /// `queue`'s lock held, so no worker is between its check of the flag
    /// and its wait on `cond` when the flag changes.
    draining: AtomicBool,
    /// Run by a worker between its check of `draining` and its wait, the
    /// queue lock held: where a test parks one.
    #[cfg(test)]
    before_wait: Option<fn(&AtomicBool)>,
}

/// Handle to the worker pool; dropping without [`Pipeline::shutdown`] joins
/// nothing (the server owns shutdown ordering explicitly).
pub struct Pipeline<T = Options> {
    shared: Arc<Shared<T>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The function workers hand each batch to.
type Handler<T> = Arc<dyn Fn(Vec<WorkItem<T>>) + Send + Sync>;

impl<T: Send + 'static> Pipeline<T> {
    /// Spawn `workers` threads processing batches with `handler`. The
    /// handler receives 1..=`batch_max` items sharing one batch key and
    /// must reply to every one of them.
    pub fn start(
        capacity: usize,
        batch_max: usize,
        workers: usize,
        handler: Handler<T>,
    ) -> Pipeline<T> {
        let shared = Shared {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            batch_max: batch_max.max(1),
            busy: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            #[cfg(test)]
            before_wait: None,
        };
        Self::spawn(shared, workers, handler)
    }

    fn spawn(shared: Shared<T>, workers: usize, handler: Handler<T>) -> Pipeline<T> {
        let shared = Arc::new(shared);
        let workers = (0..workers.max(1))
            .map(|w| {
                let shared = shared.clone();
                let handler = handler.clone();
                std::thread::Builder::new()
                    .name(format!("pressio-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, handler.as_ref()))
                    .expect("spawn pipeline worker")
            })
            .collect();
        Pipeline {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueue an item, or reject it immediately when the queue is at
    /// capacity or the pipeline is draining. On rejection the item is
    /// handed back so the caller can answer `overloaded` itself.
    pub fn submit(&self, item: WorkItem<T>) -> std::result::Result<(), WorkItem<T>> {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            // under the lock: a worker that saw the queue empty and draining
            // set has exited, and an item pushed now would never be answered
            if self.shared.draining.load(Ordering::Acquire) {
                return Err(item);
            }
            if queue.len() >= self.shared.capacity {
                pressio_obs::add_counter("serve:queue.rejected", 1);
                return Err(item);
            }
            queue.push_back(item);
            pressio_obs::set_gauge("serve:queue.depth", queue.len() as f64);
        }
        self.shared.cond.notify_one();
        Ok(())
    }

    /// Queued (not yet claimed) items, and workers handling a batch.
    pub fn load(&self) -> (usize, usize) {
        let queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        (queue.len(), self.shared.busy.load(Ordering::Acquire))
    }

    /// Graceful shutdown: stop accepting, let workers drain everything
    /// already queued, then join them. Idempotent — later calls find the
    /// handle list already empty.
    pub fn shutdown(&self) {
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.draining.store(true, Ordering::Release);
        }
        self.shared.cond.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker_loop<T>(shared: &Shared<T>, handler: &(dyn Fn(Vec<WorkItem<T>>) + Send + Sync)) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(first) = queue.pop_front() {
                    // gather up to batch_max - 1 more items with the same
                    // batch key, preserving the arrival order of the rest
                    let mut batch = vec![first];
                    let key = batch[0].batch_key.clone();
                    let mut i = 0;
                    while batch.len() < shared.batch_max && i < queue.len() {
                        if queue[i].batch_key == key {
                            batch.push(queue.remove(i).expect("index in range"));
                        } else {
                            i += 1;
                        }
                    }
                    pressio_obs::set_gauge("serve:queue.depth", queue.len() as f64);
                    shared.busy.fetch_add(1, Ordering::AcqRel);
                    break batch;
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                #[cfg(test)]
                if let Some(park) = &shared.before_wait {
                    park(&shared.draining);
                }
                queue = shared.cond.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        pressio_obs::add_counter("serve:batch.count", 1);
        pressio_obs::set_gauge("serve:batch.size", batch.len() as f64);
        let now = Instant::now();
        let (live, expired): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|item| now <= item.deadline);
        for item in expired {
            pressio_obs::add_counter("serve:deadline.exceeded", 1);
            item.respond(protocol::error_response(
                code::DEADLINE_EXCEEDED,
                "request expired while queued",
            ));
        }
        if !live.is_empty() {
            handler(live);
        }
        shared.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    fn item(key: &str, deadline_ms: u64) -> (WorkItem, std::sync::mpsc::Receiver<Options>) {
        let (tx, rx) = sync_channel(1);
        (
            WorkItem {
                batch_key: key.to_string(),
                request: Options::new().with("k", key),
                deadline: Instant::now() + Duration::from_millis(deadline_ms),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn every_submitted_item_gets_exactly_one_reply() {
        let handler: Arc<dyn Fn(Vec<WorkItem>) + Send + Sync> = Arc::new(|batch| {
            for it in batch {
                let echo = it.request.clone().with("serve:type", "echo");
                it.respond(echo);
            }
        });
        let p = Pipeline::start(64, 4, 2, handler);
        let receivers: Vec<_> = (0..20)
            .map(|i| {
                let (it, rx) = item(&format!("m{}", i % 3), 5_000);
                p.submit(it).map_err(|_| ()).unwrap();
                rx
            })
            .collect();
        for rx in receivers {
            let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(resp.get_str("serve:type").unwrap(), "echo");
        }
        p.shutdown();
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        // a handler that parks until released
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        let handler: Arc<dyn Fn(Vec<WorkItem>) + Send + Sync> = Arc::new(move |batch| {
            let (lock, cond) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cond.wait(open).unwrap();
            }
            for it in batch {
                it.respond(Options::new().with("serve:type", "late"));
            }
        });
        let p = Pipeline::start(2, 1, 1, handler);
        let mut receivers = Vec::new();
        let mut rejected = 0;
        for _ in 0..10 {
            let (it, rx) = item("m", 10_000);
            match p.submit(it) {
                Ok(()) => receivers.push(rx),
                Err(it) => {
                    rejected += 1;
                    it.respond(protocol::error_response(code::OVERLOADED, "full"));
                }
            }
        }
        assert!(rejected >= 7, "capacity 2 + one in-flight: got {rejected}");
        let (lock, cond) = &*gate;
        *lock.lock().unwrap() = true;
        cond.notify_all();
        for rx in receivers {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        p.shutdown();
    }

    #[test]
    fn expired_items_answer_deadline_exceeded() {
        let handler: Arc<dyn Fn(Vec<WorkItem>) + Send + Sync> = Arc::new(|batch| {
            for it in batch {
                std::thread::sleep(Duration::from_millis(50));
                it.respond(Options::new().with("serve:type", "done"));
            }
        });
        let p = Pipeline::start(16, 1, 1, handler);
        let (slow, slow_rx) = item("a", 5_000);
        p.submit(slow).map_err(|_| ()).unwrap();
        let (doomed, doomed_rx) = item("b", 1); // expires while 'a' runs
        p.submit(doomed).map_err(|_| ()).unwrap();
        assert_eq!(
            slow_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .get_str("serve:type")
                .unwrap(),
            "done"
        );
        let resp = doomed_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(protocol::is_error(&resp, code::DEADLINE_EXCEEDED), "{resp}");
        p.shutdown();
    }

    #[test]
    fn shutdown_wakes_a_worker_between_its_check_and_its_wait() {
        // the one worker parks after it found the queue empty and the flag
        // clear, until the flag is set or 300 ms pass; a shutdown that sets
        // the flag without the queue lock lets it go on to wait for a
        // notification already sent, and the join never returns
        static PARKED: AtomicBool = AtomicBool::new(false);
        fn park(draining: &AtomicBool) {
            if !PARKED.swap(true, Ordering::AcqRel) {
                let until = Instant::now() + Duration::from_millis(300);
                while !draining.load(Ordering::Acquire) && Instant::now() < until {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let shared: Shared<Options> = Shared {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            capacity: 4,
            batch_max: 1,
            busy: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            before_wait: Some(park),
        };
        let p = Pipeline::spawn(shared, 1, Arc::new(|_| {}));
        let parked_by = Instant::now() + Duration::from_secs(5);
        while !PARKED.load(Ordering::Acquire) {
            assert!(
                Instant::now() < parked_by,
                "the worker never reached its wait"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done_tx, done) = sync_channel(1);
        std::thread::spawn(move || {
            p.shutdown();
            done_tx.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(10))
            .expect("shutdown did not return: the worker missed its wake-up");
    }

    #[test]
    fn shutdown_drains_queued_items() {
        let handler: Arc<dyn Fn(Vec<WorkItem>) + Send + Sync> = Arc::new(|batch| {
            for it in batch {
                it.respond(Options::new().with("serve:type", "drained"));
            }
        });
        let p = Pipeline::start(64, 8, 1, handler);
        let receivers: Vec<_> = (0..16)
            .map(|_| {
                let (it, rx) = item("m", 10_000);
                p.submit(it).map_err(|_| ()).unwrap();
                rx
            })
            .collect();
        p.shutdown(); // must not drop queued work
        for rx in receivers {
            let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(resp.get_str("serve:type").unwrap(), "drained");
        }
    }

    #[test]
    fn respond_checked_replaces_late_success_with_deadline_exceeded() {
        // expired item: a late success becomes deadline_exceeded ...
        let (it, rx) = item("m", 1);
        std::thread::sleep(Duration::from_millis(10));
        assert!(it.expired());
        it.respond_checked(Options::new().with("serve:type", "prediction"));
        let resp = rx.recv().unwrap();
        assert!(protocol::is_error(&resp, code::DEADLINE_EXCEEDED), "{resp}");
        // ... but an error response keeps its diagnostics
        let (it, rx) = item("m", 1);
        std::thread::sleep(Duration::from_millis(10));
        it.respond_checked(protocol::error_response(code::NOT_FOUND, "no model"));
        assert!(protocol::is_error(&rx.recv().unwrap(), code::NOT_FOUND));
        // a live item passes successes through untouched
        let (it, rx) = item("m", 10_000);
        it.respond_checked(Options::new().with("serve:type", "prediction"));
        assert_eq!(
            rx.recv().unwrap().get_str("serve:type").unwrap(),
            "prediction"
        );
    }

    #[test]
    fn a_typed_payload_is_batched_expired_and_drained_like_options() {
        // the payload is a number; each batch records its (key, payloads)
        let batches = Arc::new(Mutex::new(Vec::new()));
        let seen = batches.clone();
        let handler: Arc<dyn Fn(Vec<WorkItem<u64>>) + Send + Sync> = Arc::new(move |batch| {
            let payloads = batch.iter().map(|it| (it.batch_key.clone(), it.request));
            seen.lock().unwrap().push(payloads.collect::<Vec<_>>());
            for it in batch {
                it.respond(Options::new().with("payload", it.request));
            }
        });
        // one idle worker: everything is queued before shutdown wakes it
        let p = Pipeline::start(64, 8, 1, handler);
        let typed = |key: &str, payload: u64, deadline: Instant| {
            let (reply, rx) = sync_channel(1);
            let batch_key = key.to_string();
            let item = WorkItem {
                batch_key,
                request: payload,
                deadline,
                reply,
            };
            (item, rx)
        };
        let later = Instant::now() + Duration::from_secs(10);
        let mut receivers = Vec::new();
        let expired = {
            let mut q = p.shared.queue.lock().unwrap();
            for i in 0..12 {
                let (it, rx) = typed(if i % 2 == 0 { "even" } else { "odd" }, i, later);
                q.push_back(it);
                receivers.push((i, rx));
            }
            let (it, rx) = typed("even", 99, Instant::now());
            q.push_back(it);
            rx
        };
        std::thread::sleep(Duration::from_millis(5));
        p.shutdown(); // wakes the worker, which drains the queue first
        for (i, rx) in receivers {
            let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(resp.get_u64("payload").unwrap(), i, "{resp}");
        }
        let resp = expired.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(protocol::is_error(&resp, code::DEADLINE_EXCEEDED), "{resp}");
        let batches = batches.lock().unwrap().clone();
        for batch in &batches {
            assert!(
                batch.iter().all(|(key, _)| *key == batch[0].0),
                "{batches:?}"
            );
            assert!(
                batch.iter().all(|&(_, payload)| payload != 99),
                "{batches:?}"
            );
        }
        assert!(batches.iter().any(|b| b.len() > 1), "{batches:?}");
    }

    #[test]
    fn batches_group_by_key() {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let s = sizes.clone();
        let handler: Arc<dyn Fn(Vec<WorkItem>) + Send + Sync> = Arc::new(move |batch| {
            assert!(batch.iter().all(|i| i.batch_key == batch[0].batch_key));
            s.lock().unwrap().push(batch.len());
            for it in batch {
                it.respond(Options::new());
            }
        });
        // one worker, started idle; fill the queue before it can drain it
        let p = Pipeline::start(64, 8, 1, handler);
        let mut receivers = Vec::new();
        {
            let mut q = p.shared.queue.lock().unwrap();
            for i in 0..12 {
                let (it, rx) = item(if i % 2 == 0 { "even" } else { "odd" }, 10_000);
                q.push_back(it);
                receivers.push(rx);
            }
        }
        p.shared.cond.notify_all();
        for rx in receivers {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let sizes = sizes.lock().unwrap().clone();
        assert!(
            sizes.iter().any(|&s| s > 1),
            "same-key items must batch: {sizes:?}"
        );
        p.shutdown();
    }
}
