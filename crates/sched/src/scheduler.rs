//! The scheduler proper: submit/dispatch machinery, DRR state, EDF lane,
//! admission control and the quiesce barrier.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use qsync_clock::{Clock, SystemClock};
use crate::job::{JobMeta, Priority};
use crate::stats::{ClassStats, SchedStats};

/// Dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict arrival order, ignoring class, client and deadline (the
    /// pre-scheduler behavior). Deadline misses are still counted.
    Fifo,
    /// EDF lane first, then priority classes, deficit round robin across
    /// client queues within a class — the default.
    #[default]
    Drr,
}

impl SchedPolicy {
    /// Lower-case policy name, as used in stats and flag values.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Drr => "drr",
        }
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(SchedPolicy::Fifo),
            "drr" | "fair" => Ok(SchedPolicy::Drr),
            other => Err(format!("unknown scheduling policy {other:?} (fifo|drr)")),
        }
    }
}

/// Deficit credited to a client per DRR visit, scaled by its weight. Shares
/// are set through [`JobMeta::weight`] and [`JobMeta::cost`]; the unit is fixed.
const DRR_QUANTUM: u64 = 1;

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Dispatch policy.
    pub policy: SchedPolicy,
    /// Per-class queue caps, indexed by [`Priority::index`]. A submit that
    /// would push a class past its cap is rejected (shed). A cap of 0 sheds
    /// everything in that class.
    pub class_caps: [usize; 3],
    /// When set, a deadline-tagged job whose deadline has already passed at
    /// dispatch time is handed to the worker flagged
    /// [`expired`](Dispatch::expired) so it can be answered without doing the
    /// work. When unset (the default) expired jobs run normally and only the
    /// miss is counted.
    pub shed_expired: bool,
    /// Starvation bound for the lower classes (DRR policy). When set, a
    /// Batch- or Background-class job that has waited at least this many
    /// milliseconds is dispatched ahead of the strict class scan (but still
    /// behind the EDF lane), so a saturated Interactive class cannot starve
    /// the lower classes forever. `None` (the default) keeps strict class
    /// priority.
    pub age_limit_ms: Option<u64>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            policy: SchedPolicy::Drr,
            class_caps: [4096; 3],
            shed_expired: false,
            age_limit_ms: None,
        }
    }
}

/// Why a submit was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The job's class queue is at its admission cap.
    QueueFull {
        /// The class whose queue was full.
        priority: Priority,
        /// The configured cap.
        cap: usize,
    },
    /// The scheduler has been closed; no further jobs are accepted.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { priority, cap } => {
                write!(f, "{} queue full (cap {cap}): request shed", priority.name())
            }
            SubmitError::Closed => f.write_str("scheduler closed"),
        }
    }
}

/// A rejected submission: the error plus the payload, handed back so the
/// caller can fall back (e.g. run the job inline or answer with an error).
#[derive(Debug)]
pub struct Rejected<T> {
    /// Why the job was rejected.
    pub error: SubmitError,
    /// The job payload, returned unconsumed.
    pub payload: T,
}

/// A job handed to a worker. Dropping the dispatch marks the job complete
/// (deadline accounting happens at drop time), so a panicking worker can
/// never wedge [`Scheduler::quiesce`].
pub struct Dispatch<T> {
    payload: Option<T>,
    meta: JobMeta,
    id: u64,
    seq: u64,
    enqueued_ms: u64,
    dispatched_ms: u64,
    deadline_ms: Option<u64>,
    expired: bool,
    shared: Arc<Shared<T>>,
}

impl<T> Dispatch<T> {
    /// The submit ticket of this job.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's scheduling metadata.
    pub fn meta(&self) -> &JobMeta {
        &self.meta
    }

    /// The job payload, by reference (`None` once taken).
    pub fn payload(&self) -> Option<&T> {
        self.payload.as_ref()
    }

    /// Take ownership of the payload. Panics if taken twice.
    pub fn take_payload(&mut self) -> T {
        self.payload.take().expect("dispatch payload already taken")
    }

    /// Clock time the job was submitted.
    pub fn enqueued_ms(&self) -> u64 {
        self.enqueued_ms
    }

    /// Clock time the job was handed to the worker.
    pub fn dispatched_ms(&self) -> u64 {
        self.dispatched_ms
    }

    /// Milliseconds the job spent queued.
    pub fn queue_wait_ms(&self) -> u64 {
        self.dispatched_ms.saturating_sub(self.enqueued_ms)
    }

    /// Absolute deadline on the scheduler clock, if the job carried one.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// `true` when the deadline had already passed at dispatch time and the
    /// scheduler is configured to shed expired jobs — the worker should
    /// answer without doing the work.
    pub fn expired(&self) -> bool {
        self.expired
    }
}

impl<T> fmt::Debug for Dispatch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dispatch")
            .field("id", &self.id)
            .field("meta", &self.meta)
            .field("enqueued_ms", &self.enqueued_ms)
            .field("dispatched_ms", &self.dispatched_ms)
            .field("deadline_ms", &self.deadline_ms)
            .field("expired", &self.expired)
            .finish_non_exhaustive()
    }
}

impl<T> Drop for Dispatch<T> {
    fn drop(&mut self) {
        let now = self.shared.clock.now_ms();
        let mut st = self.shared.state.lock().expect("scheduler state poisoned");
        st.active -= 1;
        st.inflight.remove(&self.seq);
        st.counters.completed[self.meta.priority.index()] += 1;
        if let Some(deadline) = self.deadline_ms {
            if now > deadline {
                st.counters.deadline_misses += 1;
            } else {
                st.counters.deadline_met += 1;
            }
        }
        drop(st);
        self.shared.idle.notify_all();
    }
}

/// One queued job.
struct Queued<T> {
    payload: T,
    meta: JobMeta,
    seq: u64,
    enqueued_ms: u64,
    /// Absolute deadline on the scheduler clock.
    deadline_ms: Option<u64>,
}

/// Per-class DRR state: one bounded queue per client plus the round-robin
/// ring and deficit counters.
#[derive(Default)]
struct ClassState {
    /// Client → queued (job id, cost) in arrival order.
    queues: HashMap<String, VecDeque<(u64, u32)>>,
    /// Active clients in round-robin order (front = being served).
    ring: VecDeque<String>,
    /// Carried deficit per active client.
    deficit: HashMap<String, u64>,
    /// Latest weight seen per active client.
    weight: HashMap<String, u32>,
    /// Whether the current front client has received its per-visit quantum.
    credited_front: bool,
    /// Queued jobs of this class (including its EDF-lane jobs).
    depth: usize,
}

impl ClassState {
    fn enqueue(&mut self, client: &str, id: u64, cost: u32, weight: u32) {
        self.weight.insert(client.to_owned(), weight.max(1));
        match self.queues.get_mut(client) {
            Some(queue) => queue.push_back((id, cost)),
            None => {
                self.queues.insert(client.to_owned(), VecDeque::from([(id, cost)]));
                self.ring.push_back(client.to_owned());
            }
        }
    }

    /// Deficit-round-robin pop: serve the front client while its carried
    /// deficit affords the head job, otherwise rotate (crediting one quantum
    /// per visit). Deterministic for a given enqueue order.
    fn pop(&mut self) -> Option<u64> {
        loop {
            let client = self.ring.front()?.clone();
            let Some(queue) = self.queues.get_mut(&client) else {
                // Ring entry without a queue: the client was drained.
                self.ring.pop_front();
                self.credited_front = false;
                continue;
            };
            if queue.is_empty() {
                self.queues.remove(&client);
                self.deficit.remove(&client);
                self.weight.remove(&client);
                self.ring.pop_front();
                self.credited_front = false;
                continue;
            }
            if !self.credited_front {
                let weight = self.weight.get(&client).copied().unwrap_or(1) as u64;
                *self.deficit.entry(client.clone()).or_insert(0) += DRR_QUANTUM * weight;
                self.credited_front = true;
            }
            let (id, cost) = *queue.front().expect("non-empty queue");
            let deficit = self.deficit.get_mut(&client).expect("credited client has deficit");
            if *deficit >= cost as u64 {
                *deficit -= cost as u64;
                queue.pop_front();
                if queue.is_empty() {
                    self.queues.remove(&client);
                    self.deficit.remove(&client);
                    self.weight.remove(&client);
                    self.ring.pop_front();
                    self.credited_front = false;
                }
                return Some(id);
            }
            // Insufficient deficit: rotate, carrying the deficit into the
            // next round (this is what lets expensive jobs eventually run).
            self.ring.pop_front();
            self.ring.push_back(client);
            self.credited_front = false;
        }
    }

    /// Remove a cancelled job from its client queue.
    fn remove(&mut self, client: &str, id: u64) -> bool {
        let Some(queue) = self.queues.get_mut(client) else { return false };
        let Some(pos) = queue.iter().position(|(jid, _)| *jid == id) else { return false };
        queue.remove(pos);
        // An emptied queue is cleaned up lazily when it reaches the ring
        // front; `pop` handles the empty case.
        true
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    submitted: [u64; 3],
    dispatched: [u64; 3],
    completed: [u64; 3],
    shed: [u64; 3],
    cancelled: u64,
    expired: u64,
    aged: u64,
    deadline_met: u64,
    deadline_misses: u64,
}

pub(crate) struct State<T> {
    next_id: u64,
    next_seq: u64,
    /// Job table: every queued job lives here; queues hold ids.
    jobs: HashMap<u64, Queued<T>>,
    /// FIFO policy: global arrival order.
    fifo: VecDeque<u64>,
    /// EDF lane (DRR policy): (absolute deadline, seq, id), earliest first.
    edf: BTreeSet<(u64, u64, u64)>,
    /// Aging index over queued Batch/Background class jobs:
    /// (enqueued_ms, seq, id), oldest first. Populated only when
    /// [`SchedConfig::age_limit_ms`] is set.
    age: BTreeSet<(u64, u64, u64)>,
    /// Submission seqs of every job not yet completed (queued **or** active),
    /// the epoch set behind [`Scheduler::quiesce_until`].
    inflight: BTreeSet<u64>,
    classes: [ClassState; 3],
    closed: bool,
    /// Dispatched but not yet completed.
    active: usize,
    counters: Counters,
}

impl<T> State<T> {
    /// Tickets of the queued jobs whose payload satisfies `pred`, in no
    /// particular order.
    fn queued_where<'a>(&'a self, pred: impl Fn(&T) -> bool + 'a) -> impl Iterator<Item = u64> + 'a {
        self.jobs.iter().filter(move |(_, job)| pred(&job.payload)).map(|(&id, _)| id)
    }
}

pub(crate) struct Shared<T> {
    config: SchedConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) state: Mutex<State<T>>,
    /// Signalled when a job is queued or the scheduler closes.
    available: Condvar,
    /// Signalled when a job completes or is cancelled (quiesce waits here).
    pub(crate) idle: Condvar,
}

/// The scheduler. Share it by reference across worker threads (all methods
/// take `&self`); workers loop on [`next`](Scheduler::next).
pub struct Scheduler<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler").field("stats", &self.stats()).finish()
    }
}

impl<T> Scheduler<T> {
    /// A scheduler over the system clock.
    pub fn new(config: SchedConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// A scheduler over an explicit clock (tests and virtual-time simulations).
    pub fn with_clock(config: SchedConfig, clock: Arc<dyn Clock>) -> Self {
        Scheduler {
            shared: Arc::new(Shared {
                config,
                clock,
                state: Mutex::new(State {
                    next_id: 0,
                    next_seq: 0,
                    jobs: HashMap::new(),
                    fifo: VecDeque::new(),
                    edf: BTreeSet::new(),
                    age: BTreeSet::new(),
                    inflight: BTreeSet::new(),
                    classes: Default::default(),
                    closed: false,
                    active: 0,
                    counters: Counters::default(),
                }),
                available: Condvar::new(),
                idle: Condvar::new(),
            }),
        }
    }

    /// The scheduler's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.shared.clock
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.shared.state.lock().expect("scheduler state poisoned")
    }

    /// Submit a job. Returns the job's ticket (usable with
    /// [`cancel`](Scheduler::cancel)), or the payload back if the class queue
    /// is at its cap or the scheduler is closed.
    pub fn submit(&self, payload: T, meta: JobMeta) -> Result<u64, Rejected<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(Rejected { error: SubmitError::Closed, payload });
        }
        let class = meta.priority.index();
        let cap = self.shared.config.class_caps[class];
        if st.classes[class].depth >= cap {
            st.counters.shed[class] += 1;
            return Err(Rejected {
                error: SubmitError::QueueFull { priority: meta.priority, cap },
                payload,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let now = self.shared.clock.now_ms();
        // Saturate: deadline_after_ms is wire-controlled, and an overflow
        // here would wrap to an already-expired deadline (or panic in debug
        // builds while holding the scheduler lock).
        let deadline_ms = meta.deadline_after_ms.map(|d| now.saturating_add(d));
        match self.shared.config.policy {
            SchedPolicy::Fifo => st.fifo.push_back(id),
            SchedPolicy::Drr => match deadline_ms {
                Some(deadline) => {
                    st.edf.insert((deadline, seq, id));
                }
                None => {
                    let (cost, weight, client) = (meta.cost.max(1), meta.weight, meta.client.clone());
                    st.classes[class].enqueue(&client, id, cost, weight);
                    if self.shared.config.age_limit_ms.is_some() && class >= 1 {
                        st.age.insert((now, seq, id));
                    }
                }
            },
        }
        st.classes[class].depth += 1;
        st.counters.submitted[class] += 1;
        st.inflight.insert(seq);
        st.jobs.insert(id, Queued { payload, meta, seq, enqueued_ms: now, deadline_ms });
        drop(st);
        self.shared.available.notify_one();
        Ok(id)
    }

    /// Cancel a queued job by ticket. Returns `true` if the job was removed
    /// before dispatch; `false` if it was already dispatched, completed or
    /// never existed.
    pub fn cancel(&self, id: u64) -> bool {
        self.remove_queued(&mut self.lock(), &[id]) == 1
    }

    /// Cancel the most recently submitted queued job whose payload satisfies
    /// `pred` — for callers that know a job by what it carries rather than
    /// by its ticket. Returns whether one was removed. O(queued).
    pub fn cancel_newest_where(&self, pred: impl Fn(&T) -> bool) -> bool {
        let mut st = self.lock();
        let newest = st.queued_where(pred).max();
        self.remove_queued(&mut st, newest.as_slice()) == 1
    }

    /// Cancel every queued job whose payload satisfies `pred`, in ticket
    /// order. Returns how many were removed. O(queued).
    pub fn cancel_all_where(&self, pred: impl Fn(&T) -> bool) -> usize {
        let mut st = self.lock();
        let mut ids: Vec<u64> = st.queued_where(pred).collect();
        ids.sort_unstable();
        self.remove_queued(&mut st, &ids)
    }

    /// The one removal path behind every `cancel*`: each of `ids` still
    /// queued leaves the job table and every index that holds it. Returns
    /// how many were removed, waking [`quiesce`](Scheduler::quiesce) waiters
    /// if any was.
    fn remove_queued(&self, st: &mut State<T>, ids: &[u64]) -> usize {
        let mut removed = 0;
        for &id in ids {
            let Some(job) = st.jobs.remove(&id) else { continue };
            let class = job.meta.priority.index();
            match self.shared.config.policy {
                SchedPolicy::Fifo => {
                    if let Some(pos) = st.fifo.iter().position(|jid| *jid == id) {
                        st.fifo.remove(pos);
                    }
                }
                SchedPolicy::Drr => match job.deadline_ms {
                    Some(deadline) => {
                        st.edf.remove(&(deadline, job.seq, id));
                    }
                    None => {
                        st.classes[class].remove(&job.meta.client, id);
                        st.age.remove(&(job.enqueued_ms, job.seq, id));
                    }
                },
            }
            st.classes[class].depth -= 1;
            st.inflight.remove(&job.seq);
            st.counters.cancelled += 1;
            removed += 1;
        }
        if removed > 0 {
            self.shared.idle.notify_all();
        }
        removed
    }

    /// Aging check (DRR, [`SchedConfig::age_limit_ms`] set): when the oldest
    /// queued Batch/Background job has waited past the limit, dispatch it
    /// ahead of the strict class scan. Runs after the EDF lane so explicit
    /// deadlines still win.
    fn pop_aged_locked(&self, st: &mut State<T>) -> Option<u64> {
        let limit = self.shared.config.age_limit_ms?;
        let &(enqueued_ms, seq, id) = st.age.iter().next()?;
        let now = self.shared.clock.now_ms();
        if now.saturating_sub(enqueued_ms) < limit {
            return None;
        }
        st.age.remove(&(enqueued_ms, seq, id));
        let job = st.jobs.get(&id).expect("aged job present in job table");
        let (class, client) = (job.meta.priority.index(), job.meta.client.clone());
        let removed = st.classes[class].remove(&client, id);
        debug_assert!(removed, "aged job present in its class queue");
        st.counters.aged += 1;
        Some(id)
    }

    fn pop_locked(&self, st: &mut State<T>) -> Option<Dispatch<T>> {
        let id = match self.shared.config.policy {
            SchedPolicy::Fifo => st.fifo.pop_front()?,
            SchedPolicy::Drr => {
                if let Some(&entry) = st.edf.iter().next() {
                    st.edf.remove(&entry);
                    entry.2
                } else if let Some(id) = self.pop_aged_locked(st) {
                    id
                } else {
                    st.classes.iter_mut().find_map(ClassState::pop)?
                }
            }
        };
        let job = st.jobs.remove(&id).expect("queued job present in job table");
        st.age.remove(&(job.enqueued_ms, job.seq, id));
        let class = job.meta.priority.index();
        st.classes[class].depth -= 1;
        st.counters.dispatched[class] += 1;
        st.active += 1;
        let now = self.shared.clock.now_ms();
        let expired =
            self.shared.config.shed_expired && job.deadline_ms.is_some_and(|dl| now > dl);
        if expired {
            st.counters.expired += 1;
        }
        Some(Dispatch {
            payload: Some(job.payload),
            meta: job.meta,
            id,
            seq: job.seq,
            enqueued_ms: job.enqueued_ms,
            dispatched_ms: now,
            deadline_ms: job.deadline_ms,
            expired,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Dispatch the next job, blocking while the queues are empty. Returns
    /// `None` once the scheduler is closed and fully drained — the worker
    /// exit condition.
    pub fn next(&self) -> Option<Dispatch<T>> {
        let mut st = self.lock();
        loop {
            if let Some(dispatch) = self.pop_locked(&mut st) {
                return Some(dispatch);
            }
            if st.closed {
                return None;
            }
            st = self.shared.available.wait(st).expect("scheduler state poisoned");
        }
    }

    /// Dispatch the next job without blocking.
    pub fn try_next(&self) -> Option<Dispatch<T>> {
        let mut st = self.lock();
        self.pop_locked(&mut st)
    }

    /// Stop accepting submissions. Workers drain the remaining queue, then
    /// [`next`](Scheduler::next) returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.shared.available.notify_all();
    }

    /// An epoch cutoff covering every job submitted so far, for
    /// [`quiesce_until`](Scheduler::quiesce_until).
    pub fn barrier(&self) -> u64 {
        self.lock().next_seq
    }

    /// Block until every job submitted **before the call** has completed or
    /// been cancelled — the serving layer's delta barrier. Jobs submitted
    /// after the call (e.g. by other connections of a shared-scheduler
    /// server) are *not* waited for, so a barrier cannot starve under
    /// continuous traffic. Requires workers to be draining the queue (or the
    /// queue to be empty) to return.
    pub fn quiesce(&self) {
        let cutoff = self.barrier();
        self.quiesce_until(cutoff);
    }

    /// Block until every job submitted before the [`barrier`](Scheduler::barrier)
    /// snapshot `cutoff` has completed or been cancelled.
    pub fn quiesce_until(&self, cutoff: u64) {
        let mut st = self.lock();
        while st.inflight.iter().next().is_some_and(|&seq| seq < cutoff) {
            st = self.shared.idle.wait(st).expect("scheduler state poisoned");
        }
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> SchedStats {
        let st = self.lock();
        let class = |i: usize| ClassStats {
            depth: st.classes[i].depth,
            submitted: st.counters.submitted[i],
            dispatched: st.counters.dispatched[i],
            completed: st.counters.completed[i],
            shed: st.counters.shed[i],
        };
        SchedStats {
            policy: self.shared.config.policy.name().to_owned(),
            interactive: class(0),
            batch: class(1),
            background: class(2),
            queued: st.jobs.len(),
            active: st.active,
            cancelled: st.counters.cancelled,
            expired: st.counters.expired,
            aged: st.counters.aged,
            deadline_met: st.counters.deadline_met,
            deadline_misses: st.counters.deadline_misses,
        }
    }

    /// Total DRR deficit currently banked across every class and client —
    /// credit granted by rotations but not yet spent on dispatches. An
    /// observability gauge: persistent growth means clients are being
    /// credited without their jobs fitting in a quantum.
    pub fn deficit_carry(&self) -> u64 {
        let st = self.lock();
        st.classes.iter().map(|c| c.deficit.values().sum::<u64>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_clock::ManualClock;

    fn drr_config() -> SchedConfig {
        SchedConfig { policy: SchedPolicy::Drr, ..SchedConfig::default() }
    }

    /// Drain the scheduler under a single logical worker, returning payloads
    /// in dispatch order.
    fn drain(sched: &Scheduler<&'static str>) -> Vec<&'static str> {
        let mut order = Vec::new();
        while let Some(mut job) = sched.try_next() {
            order.push(job.take_payload());
        }
        order
    }

    #[test]
    fn higher_classes_dispatch_first() {
        let sched = Scheduler::new(drr_config());
        sched.submit("bg", JobMeta::new("c", Priority::Background)).unwrap();
        sched.submit("batch", JobMeta::new("c", Priority::Batch)).unwrap();
        sched.submit("fg", JobMeta::new("c", Priority::Interactive)).unwrap();
        assert_eq!(drain(&sched), vec!["fg", "batch", "bg"]);
    }

    #[test]
    fn drr_round_robins_across_clients() {
        let sched = Scheduler::new(drr_config());
        for i in 0..3 {
            sched.submit(["a0", "a1", "a2"][i], JobMeta::new("a", Priority::Interactive)).unwrap();
        }
        sched.submit("b0", JobMeta::new("b", Priority::Interactive)).unwrap();
        sched.submit("c0", JobMeta::new("c", Priority::Interactive)).unwrap();
        // Client a flooded first, but b and c each get a turn per round.
        assert_eq!(drain(&sched), vec!["a0", "b0", "c0", "a1", "a2"]);
    }

    #[test]
    fn client_weights_scale_service_share() {
        let sched = Scheduler::new(drr_config());
        let heavy = JobMeta { weight: 2, ..JobMeta::new("heavy", Priority::Interactive) };
        for i in 0..4 {
            sched.submit(["h0", "h1", "h2", "h3"][i], heavy.clone()).unwrap();
        }
        for i in 0..2 {
            sched.submit(["l0", "l1"][i], JobMeta::new("light", Priority::Interactive)).unwrap();
        }
        // Weight 2 serves two jobs per round against light's one.
        assert_eq!(drain(&sched), vec!["h0", "h1", "l0", "h2", "h3", "l1"]);
    }

    #[test]
    fn job_cost_consumes_deficit() {
        let sched = Scheduler::new(drr_config());
        let expensive = JobMeta { cost: 3, ..JobMeta::new("a", Priority::Interactive) };
        sched.submit("big", expensive).unwrap();
        sched.submit("b0", JobMeta::new("b", Priority::Interactive)).unwrap();
        sched.submit("b1", JobMeta::new("b", Priority::Interactive)).unwrap();
        // The cost-3 job needs three rounds of quantum; b gets served while
        // a's deficit accumulates.
        assert_eq!(drain(&sched), vec!["b0", "b1", "big"]);
    }

    #[test]
    fn edf_lane_preempts_classes_and_orders_by_deadline() {
        let sched = Scheduler::new(drr_config());
        sched.submit("fg", JobMeta::new("c", Priority::Interactive)).unwrap();
        sched
            .submit("late", JobMeta::new("c", Priority::Background).with_deadline_ms(500))
            .unwrap();
        sched.submit("soon", JobMeta::new("c", Priority::Batch).with_deadline_ms(100)).unwrap();
        assert_eq!(drain(&sched), vec!["soon", "late", "fg"]);
    }

    #[test]
    fn fifo_policy_ignores_class_and_client() {
        let sched = Scheduler::new(SchedConfig { policy: SchedPolicy::Fifo, ..drr_config() });
        sched.submit("bg", JobMeta::new("a", Priority::Background)).unwrap();
        sched.submit("fg", JobMeta::new("b", Priority::Interactive)).unwrap();
        sched.submit("dl", JobMeta::new("c", Priority::Batch).with_deadline_ms(1)).unwrap();
        assert_eq!(drain(&sched), vec!["bg", "fg", "dl"]);
    }

    #[test]
    fn admission_cap_sheds_over_limit() {
        let mut config = drr_config();
        config.class_caps = [2, 0, 4096];
        let sched = Scheduler::new(config);
        sched.submit("a", JobMeta::new("c", Priority::Interactive)).unwrap();
        sched.submit("b", JobMeta::new("c", Priority::Interactive)).unwrap();
        let rejected = sched.submit("c", JobMeta::new("c", Priority::Interactive)).unwrap_err();
        assert_eq!(
            rejected.error,
            SubmitError::QueueFull { priority: Priority::Interactive, cap: 2 }
        );
        assert_eq!(rejected.payload, "c");
        // Cap 0 sheds everything in that class.
        assert!(sched.submit("d", JobMeta::new("c", Priority::Batch)).is_err());
        let stats = sched.stats();
        assert_eq!(stats.interactive.shed, 1);
        assert_eq!(stats.batch.shed, 1);
        assert_eq!(stats.interactive.depth, 2);
    }

    #[test]
    fn cancel_removes_queued_jobs_only() {
        let sched = Scheduler::new(drr_config());
        let keep = sched.submit("keep", JobMeta::new("c", Priority::Interactive)).unwrap();
        let drop_ = sched.submit("drop", JobMeta::new("c", Priority::Interactive)).unwrap();
        let timed =
            sched.submit("timed", JobMeta::new("c", Priority::Interactive).with_deadline_ms(9)).unwrap();
        assert!(sched.cancel(drop_));
        assert!(sched.cancel(timed), "EDF-lane jobs are cancellable too");
        assert!(!sched.cancel(drop_), "double cancel reports false");
        assert_eq!(drain(&sched), vec!["keep"]);
        assert!(!sched.cancel(keep), "dispatched jobs are not cancellable");
        let stats = sched.stats();
        assert_eq!(stats.cancelled, 2);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn deadline_accounting_counts_met_and_missed() {
        let clock = Arc::new(ManualClock::new());
        let sched: Scheduler<&str> = Scheduler::with_clock(drr_config(), clock.clone());
        sched.submit("met", JobMeta::new("c", Priority::Interactive).with_deadline_ms(100)).unwrap();
        sched.submit("miss", JobMeta::new("c", Priority::Interactive).with_deadline_ms(5)).unwrap();
        // EDF: the deadline-5 job dispatches first despite arriving second.
        let mut miss = sched.try_next().unwrap();
        assert_eq!(miss.take_payload(), "miss");
        assert!(!miss.expired());
        clock.advance(50); // the "work" overruns the 5 ms deadline
        drop(miss);
        let met = sched.try_next().unwrap();
        drop(met); // completes at t=50, within its 100 ms deadline
        let stats = sched.stats();
        assert_eq!(stats.deadline_met, 1);
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.expired, 0, "shed_expired off: nothing is flagged expired");
    }

    #[test]
    fn shed_expired_flags_jobs_already_past_deadline() {
        let clock = Arc::new(ManualClock::new());
        let config = SchedConfig { shed_expired: true, ..drr_config() };
        let sched: Scheduler<&str> = Scheduler::with_clock(config, clock.clone());
        sched.submit("dead", JobMeta::new("c", Priority::Interactive).with_deadline_ms(10)).unwrap();
        clock.advance(25); // deadline passes while queued
        let job = sched.try_next().unwrap();
        assert!(job.expired());
        assert_eq!(job.queue_wait_ms(), 25);
        drop(job);
        let stats = sched.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.deadline_misses, 1, "expired jobs also count as misses");
    }

    #[test]
    fn wire_scale_deadline_saturates_instead_of_wrapping() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(1_000);
        let config = SchedConfig { shed_expired: true, ..drr_config() };
        let sched: Scheduler<&str> = Scheduler::with_clock(config, clock);
        // u64::MAX ms is wire-controlled input: it must clamp to "never",
        // not wrap past zero into an already-expired deadline.
        sched
            .submit("far", JobMeta::new("c", Priority::Interactive).with_deadline_ms(u64::MAX))
            .unwrap();
        let job = sched.try_next().unwrap();
        assert!(!job.expired());
        assert_eq!(job.deadline_ms(), Some(u64::MAX));
        drop(job);
        assert_eq!(sched.stats().deadline_met, 1);
    }

    #[test]
    fn close_drains_then_ends_workers() {
        let sched = Scheduler::new(drr_config());
        sched.submit("a", JobMeta::default()).unwrap();
        sched.submit("b", JobMeta::default()).unwrap();
        sched.close();
        assert!(matches!(sched.submit("late", JobMeta::default()), Err(Rejected { error: SubmitError::Closed, .. })));
        let mut seen = Vec::new();
        while let Some(mut job) = sched.next() {
            seen.push(job.take_payload());
        }
        assert_eq!(seen, vec!["a", "b"]);
    }

    #[test]
    fn quiesce_waits_for_queued_and_active_jobs() {
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(drr_config()));
        for i in 0..16 {
            sched.submit(i, JobMeta::default()).unwrap();
        }
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let sched = Arc::clone(&sched);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    while let Some(job) = sched.next() {
                        done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        drop(job);
                    }
                });
            }
            sched.quiesce();
            assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), 16);
            let stats = sched.stats();
            assert_eq!(stats.queued, 0);
            assert_eq!(stats.active, 0);
            sched.close();
        });
    }

    #[test]
    fn quiesce_barrier_ignores_jobs_submitted_after_the_cutoff() {
        let sched: Scheduler<&str> = Scheduler::new(drr_config());
        sched.submit("before", JobMeta::default()).unwrap();
        let cutoff = sched.barrier();
        sched.submit("after", JobMeta::default()).unwrap();
        // Same client, arrival order: "before" dispatches first.
        let mut before = sched.try_next().unwrap();
        assert_eq!(before.take_payload(), "before");
        std::thread::scope(|scope| {
            let barrier = scope.spawn(|| sched.quiesce_until(cutoff));
            // Completing the lone pre-cutoff job releases the barrier even
            // though "after" is still queued — the scope would deadlock (and
            // the test time out) if the barrier waited for it.
            drop(before);
            barrier.join().unwrap();
        });
        assert_eq!(sched.stats().queued, 1, "the post-cutoff job is untouched");
    }

    #[test]
    fn cancellation_releases_the_quiesce_barrier() {
        let sched: Scheduler<&str> = Scheduler::new(drr_config());
        let ticket = sched.submit("doomed", JobMeta::default()).unwrap();
        sched.submit("doomed too", JobMeta::default().with_deadline_ms(5)).unwrap();
        let cutoff = sched.barrier();
        assert!(sched.cancel(ticket));
        assert_eq!(sched.cancel_all_where(|_| true), 1, "by predicate, from the EDF lane");
        // Nothing pre-cutoff is left in flight: returns without any worker.
        sched.quiesce_until(cutoff);
        sched.quiesce();
    }

    #[test]
    fn predicate_cancel_reaches_class_queues_the_edf_lane_and_the_aging_index() {
        let clock = Arc::new(ManualClock::new());
        let config = SchedConfig { age_limit_ms: Some(50), ..drr_config() };
        let sched: Scheduler<&str> = Scheduler::with_clock(config, clock.clone());
        sched.submit("x-old", JobMeta::new("a", Priority::Interactive)).unwrap();
        sched.submit("keep", JobMeta::new("a", Priority::Interactive)).unwrap();
        sched.submit("x-timed", JobMeta::new("b", Priority::Batch).with_deadline_ms(9)).unwrap();
        sched.submit("x-bg", JobMeta::new("b", Priority::Background)).unwrap();
        sched.submit("x-new", JobMeta::new("a", Priority::Interactive)).unwrap();
        let twin = |p: &&str| *p == "x-old" || *p == "x-new";
        assert!(sched.cancel_newest_where(twin), "a match is queued");
        assert_eq!(sched.cancel_all_where(|p| *p == "x-new"), 0, "the newer twin is the one gone");
        assert_eq!(sched.stats().interactive.depth, 2);
        // Ticket order over what is left: the class queue, the EDF lane and
        // the aging index each give up their entry.
        assert_eq!(sched.cancel_all_where(|p| p.starts_with("x-")), 3);
        assert!(!sched.cancel_newest_where(twin), "nothing left to match");
        assert_eq!(sched.cancel_all_where(|p| p.starts_with("x-")), 0);
        clock.advance(60); // past the aging window: a stale index entry would fire here
        assert_eq!(drain(&sched), vec!["keep"]);
        let stats = sched.stats();
        assert_eq!((stats.cancelled, stats.aged, stats.queued), (4, 0, 0));
        assert_eq!(stats.classes().map(|c| c.depth), [0, 0, 0]);
    }

    #[test]
    fn aging_bounds_background_wait_under_interactive_flood() {
        // Satellite: a sustained Interactive flood must not delay a queued
        // Background job past the configured aging window. Fully
        // deterministic on ManualClock.
        let clock = Arc::new(ManualClock::new());
        let config = SchedConfig { age_limit_ms: Some(100), ..drr_config() };
        let sched: Scheduler<String> = Scheduler::with_clock(config, clock.clone());
        sched.submit("bg".to_owned(), JobMeta::new("victim", Priority::Background)).unwrap();
        // Keep the Interactive class saturated: dispatch one flood job per
        // tick, submitting two more each time, and record when the
        // Background job finally comes out.
        let mut flood_seq = 0u64;
        let mut submit_flood = |n: u64| {
            for _ in 0..n {
                sched
                    .submit(format!("fg{flood_seq}"), JobMeta::new("flood", Priority::Interactive))
                    .unwrap();
                flood_seq += 1;
            }
        };
        submit_flood(4);
        let mut bg_wait_ms = None;
        for tick in 0..50u64 {
            let mut job = sched.try_next().expect("queues are never empty");
            let payload = job.take_payload();
            if payload == "bg" {
                bg_wait_ms = Some(job.queue_wait_ms());
                assert_eq!(job.dispatched_ms(), tick * 10);
                break;
            }
            drop(job);
            submit_flood(2); // the flood never lets the class drain
            clock.advance(10);
        }
        let waited = bg_wait_ms.expect("background job dispatched within the test horizon");
        // Promoted at the first dispatch at or past the 100 ms window —
        // never starved beyond it (one in-flight dispatch of slack).
        assert_eq!(waited, 100, "aged promotion fires exactly at the window");
        assert_eq!(sched.stats().aged, 1);
        assert_eq!(sched.stats().background.completed, 1);
    }

    #[test]
    fn aging_disabled_keeps_strict_class_priority() {
        let clock = Arc::new(ManualClock::new());
        let sched: Scheduler<&str> = Scheduler::with_clock(drr_config(), clock.clone());
        sched.submit("bg", JobMeta::new("victim", Priority::Background)).unwrap();
        sched.submit("fg", JobMeta::new("flood", Priority::Interactive)).unwrap();
        clock.advance(1_000_000); // ancient, but no window configured
        let mut first = sched.try_next().unwrap();
        assert_eq!(first.take_payload(), "fg");
        drop(first);
        assert_eq!(sched.stats().aged, 0);
    }

    #[test]
    fn aged_jobs_yield_to_the_edf_lane_and_cancel_cleans_the_index() {
        let clock = Arc::new(ManualClock::new());
        let config = SchedConfig { age_limit_ms: Some(50), ..drr_config() };
        let sched: Scheduler<&str> = Scheduler::with_clock(config, clock.clone());
        sched.submit("old-bg", JobMeta::new("c", Priority::Background)).unwrap();
        let doomed = sched.submit("doomed-batch", JobMeta::new("c", Priority::Batch)).unwrap();
        clock.advance(60);
        sched.submit("deadline", JobMeta::new("c", Priority::Batch).with_deadline_ms(10)).unwrap();
        assert!(sched.cancel(doomed), "queued aged job is cancellable");
        // EDF still wins over an over-age job; then the aged Background job
        // beats the strict scan (which has nothing above it anyway here).
        let mut a = sched.try_next().unwrap();
        assert_eq!(a.take_payload(), "deadline");
        drop(a);
        let mut b = sched.try_next().unwrap();
        assert_eq!(b.take_payload(), "old-bg");
        drop(b);
        let stats = sched.stats();
        assert_eq!(stats.aged, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn stats_snapshot_counts_throughput_per_class() {
        let sched = Scheduler::new(drr_config());
        sched.submit("a", JobMeta::new("c", Priority::Interactive)).unwrap();
        sched.submit("b", JobMeta::new("c", Priority::Batch)).unwrap();
        let job = sched.try_next().unwrap();
        drop(job);
        let stats = sched.stats();
        assert_eq!(stats.policy, "drr");
        assert_eq!(stats.interactive.submitted, 1);
        assert_eq!(stats.interactive.dispatched, 1);
        assert_eq!(stats.interactive.completed, 1);
        assert_eq!(stats.batch.submitted, 1);
        assert_eq!(stats.batch.depth, 1);
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.shed_total(), 0);
    }
}
