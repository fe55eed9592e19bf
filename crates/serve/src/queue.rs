//! The bounded job queue between the gateway's reactor and its pass loops.
//!
//! The reactor [`push`](JobQueue::push)es each parsed localize request,
//! body undecoded; each pass loop [`pop_wait`](JobQueue::pop_wait)s for
//! the first job of a pass and then [`drain`](JobQueue::drain)s whatever
//! else queued up meanwhile — that backlog is what the loop decodes and
//! coalesces into shared fleet passes. The queue is multi-producer and
//! multi-consumer; each job goes to exactly one consumer. A full queue
//! rejects the push (the reactor answers `503`), which bounds both memory
//! and tail latency under overload.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct State<T> {
    jobs: VecDeque<T>,
    /// Set by [`JobQueue::close`]; pushes are rejected afterwards.
    closed: bool,
}

/// A bounded MPMC queue with blocking pop. `T` is the job type; the
/// gateway instantiates it with its internal job struct.
pub struct JobQueue<T> {
    inner: Mutex<State<T>>,
    nonempty: Condvar,
    capacity: usize,
}

/// Why a [`JobQueue::push`] was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (load shed).
    Full,
    /// The consumers have shut down; no job pushed now would ever be served.
    Closed,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` jobs.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(State {
                jobs: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, or rejects it when the queue is full (load shed) or
    /// closed (the consumers are gone). A rejected job is handed back to the
    /// caller — jobs carry reply handles that must answer the *right* 503,
    /// not a generic drop-path fallback. The `queue.full` fault point
    /// injects artificial capacity rejections for overload testing.
    pub fn push(&self, job: T) -> Result<(), (T, PushError)> {
        let mut q = self.inner.lock().expect("queue lock");
        if q.closed {
            return Err((job, PushError::Closed));
        }
        if q.jobs.len() >= self.capacity || nilm_fault::fires("queue.full") {
            return Err((job, PushError::Full));
        }
        q.jobs.push_back(job);
        drop(q);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks up to `timeout` for a job. `None` on timeout or once the
    /// queue is closed and empty — a pass loop uses that to re-check the
    /// shutdown flag.
    pub fn pop_wait(&self, timeout: Duration) -> Option<T> {
        let mut q = self.inner.lock().expect("queue lock");
        if q.jobs.is_empty() {
            let (guard, _) = self
                .nonempty
                .wait_timeout_while(q, timeout, |q| q.jobs.is_empty() && !q.closed)
                .expect("queue lock");
            q = guard;
        }
        q.jobs.pop_front()
    }

    /// Takes up to `max` more jobs without blocking — the micro-batch
    /// backlog that coalesces with the job already popped.
    pub fn drain(&self, max: usize) -> Vec<T> {
        let mut q = self.inner.lock().expect("queue lock");
        let n = q.jobs.len().min(max);
        q.jobs.drain(..n).collect()
    }

    /// Marks the queue closed and returns every job still enqueued, in one
    /// atomic step, and wakes every blocked [`pop_wait`](JobQueue::pop_wait).
    /// The last consumer calls this when it exits so (a) any job that
    /// raced in just before closing is handed back for a reply rather than
    /// stranded, and (b) later pushes fail with [`PushError::Closed`]
    /// instead of waiting forever on consumers that are gone. Idempotent:
    /// a second close returns only what was pushed since (nothing, as
    /// pushes fail once closed).
    pub fn close(&self) -> Vec<T> {
        let mut q = self.inner.lock().expect("queue lock");
        q.closed = true;
        let stragglers = q.jobs.drain(..).collect();
        drop(q);
        self.nonempty.notify_all();
        stragglers
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_drain_and_shed() {
        let q: JobQueue<u32> = JobQueue::new(3);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.push(4), Err((4, PushError::Full)), "capacity 3 must shed the 4th");
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Some(1));
        assert_eq!(q.drain(10), vec![2, 3]);
        assert_eq!(q.pop_wait(Duration::from_millis(1)), None, "empty queue times out");
    }

    #[test]
    fn close_hands_back_stragglers_and_rejects_later_pushes() {
        let q: JobQueue<u32> = JobQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.close(), vec![1, 2], "closing drains racing jobs atomically");
        assert_eq!(q.push(3), Err((3, PushError::Closed)));
        assert_eq!(q.depth(), 0);
        assert_eq!(q.close(), Vec::<u32>::new(), "a second close is a no-op");
    }

    #[test]
    fn pop_wait_wakes_on_cross_thread_push() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(8));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_wait(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn close_wakes_every_blocked_consumer() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(8));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let start = std::time::Instant::now();
                    (q.pop_wait(Duration::from_secs(30)), start.elapsed())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for t in waiters {
            let (job, waited) = t.join().unwrap();
            assert_eq!(job, None);
            assert!(waited < Duration::from_secs(10), "close left a consumer asleep");
        }
    }
}
