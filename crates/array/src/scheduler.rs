//! The array's closed-loop request engine.

use crate::{
    ArrayDegraded, ArrayManager, ArrayReport, GcMode, MemberSched, Redundancy, StripeExtent,
    StripeMap,
};
use jitgc_core::system::{GcSignals, SsdSystem};
use jitgc_nand::{Lpn, WearReport};
use jitgc_sim::stats::LatencyRecorder;
use jitgc_sim::SimTime;
use jitgc_workload::{IoKind, IoRequest, Workload};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Which engine advances the members during a run.
///
/// Work stealing is the only driver, so this enum has one variant and
/// selects nothing. It is kept, with [`ArrayConfig::sched`], only
/// because the `perf-ledger` benchmark names both in its array
/// configuration; the reference oracle is
/// [`ArrayScheduler::run_reference`], not a variant.
///
/// [`ArrayConfig::sched`]: crate::ArrayConfig::sched
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArraySched {
    /// Work-stealing: only the members a quantum actually touched become
    /// work items, ordered laggiest-first and dealt into per-worker
    /// deque shards; a worker that drains its own shard steals from its
    /// neighbours'. Serial phases lock only the touched lanes, so
    /// per-quantum driver cost is O(touched), not O(members) — the
    /// difference between 4 and 256 members.
    Steal,
}

/// What one member step produced: everything the serial merge phase
/// needs to fold the sub-request back into the logical schedule.
#[derive(Debug, Clone, Copy)]
struct StepResult {
    /// Completion time of the sub-request.
    done: SimTime,
    /// Uncorrectable pages the step left in `failed_read_lpns`.
    failed_reads: u64,
    /// Whether the step (including the periodic work it pulled in)
    /// invoked foreground GC — the straggler attribution signal.
    fgc: bool,
}

/// One member plus its per-quantum mailboxes, owned by a worker thread
/// during the parallel phase and by the driver (via the lock, always
/// uncontended at that point) during the serial phase.
struct Lane {
    system: SsdSystem,
    /// Sub-requests for this member in global request order.
    queue: Vec<(IoRequest, SimTime)>,
    /// Per-sub results in queue order.
    results: Vec<StepResult>,
    /// Time-behind-horizon sample per step (merged into the scheduler's
    /// per-member recorder after the run).
    lag: LatencyRecorder,
    /// Times this lane was executed by a worker other than the one whose
    /// shard held it. Wall-clock telemetry only — never in the report.
    steals: u64,
}

impl Lane {
    fn new(system: SsdSystem) -> Self {
        Lane {
            system,
            queue: Vec::new(),
            results: Vec::new(),
            lag: LatencyRecorder::new(),
            steals: 0,
        }
    }

    /// Steps every queued sub-request in order, recording the same
    /// telemetry the reference loop records: how far the member's
    /// clock trailed the issue time, and whether the step hit FGC.
    fn run_queue(&mut self) {
        for i in 0..self.queue.len() {
            let (sub, issue) = self.queue[i];
            self.lag
                .record(issue.saturating_since(self.system.virtual_clock()));
            let fgc_before = self.system.fgc_invocations();
            let done = self.system.step(sub, issue);
            self.results.push(StepResult {
                done,
                failed_reads: self.system.failed_read_lpns().len() as u64,
                fgc: self.system.fgc_invocations() > fgc_before,
            });
        }
        self.queue.clear();
    }
}

/// Splits a slice into two distinct mutable elements.
fn pair_mut<T>(xs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "a mirrored pair needs two distinct members");
    if a < b {
        let (left, right) = xs.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = xs.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

/// Uniform indexed access to the member lanes for the serial phases of
/// the work-stealing driver: a plain slice inline, lock-on-demand lanes
/// in the pool, so a quantum that touches 10 of 256 members pays for 10
/// locks.
trait LaneTable {
    fn lane(&mut self, member: usize) -> &mut Lane;
    /// Two distinct lanes at once (mirrored-read routing).
    fn pair(&mut self, a: usize, b: usize) -> (&mut Lane, &mut Lane);
}

impl LaneTable for [Lane] {
    fn lane(&mut self, member: usize) -> &mut Lane {
        &mut self[member]
    }

    fn pair(&mut self, a: usize, b: usize) -> (&mut Lane, &mut Lane) {
        pair_mut(self, a, b)
    }
}

/// Lock-on-demand lane access for the work-stealing driver's serial
/// phases. Holds the guards it acquired until [`release`](Self::release);
/// the linear scan is over the touched set (≤ a few × queue depth), not
/// the member count.
struct LazyLanes<'l> {
    all: &'l [Mutex<Lane>],
    held: Vec<(usize, MutexGuard<'l, Lane>)>,
}

impl<'l> LazyLanes<'l> {
    fn new(all: &'l [Mutex<Lane>]) -> Self {
        LazyLanes {
            all,
            held: Vec::new(),
        }
    }

    /// Drops every held guard (call before handing the lanes to workers).
    fn release(&mut self) {
        self.held.clear();
    }

    fn slot(&mut self, member: usize) -> usize {
        if let Some(pos) = self.held.iter().position(|(m, _)| *m == member) {
            return pos;
        }
        self.held
            .push((member, self.all[member].lock().expect("a member panicked")));
        self.held.len() - 1
    }
}

impl LaneTable for LazyLanes<'_> {
    fn lane(&mut self, member: usize) -> &mut Lane {
        let pos = self.slot(member);
        &mut self.held[pos].1
    }

    fn pair(&mut self, a: usize, b: usize) -> (&mut Lane, &mut Lane) {
        let pa = self.slot(a);
        let pb = self.slot(b);
        let (x, y) = pair_mut(&mut self.held, pa, pb);
        (&mut x.1, &mut y.1)
    }
}

/// The sharded work queue the stealing workers drain each round.
///
/// The driver publishes the quantum's touched members laggiest-first;
/// index `i` of the agenda belongs to shard `i % shards`, so the
/// laggiest members spread round-robin over the workers. A worker pops
/// its own shard first and probes its neighbours' shards (a steal) once
/// its own runs dry. Claims go through one `fetch_add` per shard cursor,
/// so every agenda slot is executed exactly once; which worker gets it
/// only moves wall-clock time, never simulated state.
struct StealQueue {
    agenda: Vec<AtomicUsize>,
    len: AtomicUsize,
    cursors: Vec<AtomicUsize>,
}

impl StealQueue {
    fn new(members: usize, shards: usize) -> Self {
        StealQueue {
            agenda: (0..members).map(AtomicUsize::new).collect(),
            len: AtomicUsize::new(0),
            cursors: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Publishes the next round's agenda. Only called while the workers
    /// are parked at the start barrier, which orders these plain stores
    /// before every worker's loads.
    fn publish(&self, order: &[usize]) {
        for (slot, &member) in self.agenda.iter().zip(order) {
            slot.store(member, Ordering::Relaxed);
        }
        self.len.store(order.len(), Ordering::Relaxed);
        for cursor in &self.cursors {
            cursor.store(0, Ordering::Relaxed);
        }
    }

    /// Claims the next member for `worker`: own shard first, then each
    /// neighbour's in turn. Returns the member and whether it was stolen.
    fn pop(&self, worker: usize) -> Option<(usize, bool)> {
        let len = self.len.load(Ordering::Relaxed);
        let shards = self.cursors.len();
        for probe in 0..shards {
            let shard = (worker + probe) % shards;
            let at = self.cursors[shard].fetch_add(1, Ordering::Relaxed);
            let index = shard + at * shards;
            if index < len {
                return Some((self.agenda[index].load(Ordering::Relaxed), probe != 0));
            }
        }
        None
    }
}

/// Per-quantum bookkeeping, allocated once and reused across rounds so
/// the steady state allocates nothing.
struct QuantumState {
    /// (thread, issue) per logical request, in request order.
    quantum: Vec<(usize, SimTime)>,
    /// (request index, member, counts-lost-pages) per sub-request.
    subs: Vec<(usize, usize, bool)>,
    /// Members the current quantum dealt work to, in first-touch order
    /// until the driver reorders them laggiest-first.
    touched: Vec<usize>,
    /// Per-member read position into `Lane::results` during the merge.
    /// Only touched members' entries are ever non-zero.
    cursors: Vec<usize>,
    outcomes: Vec<ReqOutcome>,
    /// Scratch for the laggiest-first sort: (member, queued, behind µs).
    agenda_keys: Vec<(usize, u64, u64)>,
    /// A mirrored read that must wait for the quantum ahead of it.
    pending: Option<IoRequest>,
    exhausted: bool,
    queue_depth: usize,
}

impl QuantumState {
    fn new(queue_depth: usize, members: usize) -> Self {
        QuantumState {
            quantum: Vec::with_capacity(queue_depth),
            subs: Vec::new(),
            touched: Vec::new(),
            cursors: vec![0; members],
            outcomes: Vec::with_capacity(queue_depth),
            agenda_keys: Vec::new(),
            pending: None,
            exhausted: false,
            queue_depth,
        }
    }
}

/// Accumulates one logical request's sub-completions into its completion
/// time plus straggler attribution: which member finished last, by how
/// much it trailed the runner-up (the request's *exclusive* delay — the
/// part no other member can hide), and whether that member was mid-FGC.
/// Ties keep the first maximum, so attribution is deterministic.
///
/// Attribution only applies to requests that fanned out to **two or
/// more** members: a single-sub request has no runner-up, so calling its
/// one member a "straggler" would just re-measure per-member load and
/// drown the real signal (a member holding multi-member requests back).
#[derive(Debug, Clone, Copy)]
struct ReqOutcome {
    completion: SimTime,
    /// The second-slowest completion (or the issue time before one
    /// exists): the request would have finished here without the
    /// straggler.
    runner_up: SimTime,
    /// Member holding the current maximum; `usize::MAX` until the first
    /// sub-completion arrives (a zero-page request has none).
    straggler: usize,
    /// Whether the straggler's step invoked foreground GC.
    fgc: bool,
    /// Sub-completions observed; attribution needs at least two.
    subs: u32,
}

impl ReqOutcome {
    fn new(issue: SimTime) -> Self {
        ReqOutcome {
            completion: issue,
            runner_up: issue,
            straggler: usize::MAX,
            fgc: false,
            subs: 0,
        }
    }

    fn observe(&mut self, member: usize, done: SimTime, fgc: bool) {
        self.subs += 1;
        if self.straggler == usize::MAX || done > self.completion {
            self.runner_up = self.runner_up.max(self.completion);
            self.completion = self.completion.max(done);
            self.straggler = member;
            self.fgc = fgc;
        } else {
            self.runner_up = self.runner_up.max(done);
        }
    }
}

/// What routing one mirrored-read sub-request produced.
struct MirrorOutcome {
    done: SimTime,
    device: usize,
    fgc: bool,
    recovered_pages: u64,
    lost_pages: u64,
}

/// Routes and executes one mirrored-read sub-request over the two
/// replica members. This is *the* serialization point of the array: the
/// replica choice reads both members' live GC signals, so every driver —
/// the serial reference, inline and pooled work stealing — funnels
/// through this one function and the reports cannot drift apart.
fn route_mirrored_sub(
    manager: &mut ArrayManager,
    retry: &mut Vec<Lpn>,
    member_lag: &mut [LatencyRecorder],
    primary: (usize, &mut SsdSystem),
    replica: (usize, &mut SsdSystem),
    sub: IoRequest,
    issue: SimTime,
) -> MirrorOutcome {
    let (primary, primary_sys) = primary;
    let (replica, replica_sys) = replica;
    // Lag and FGC baselines are sampled before the candidates' clocks
    // advance to the issue time, so the chosen replica's step is charged
    // for the periodic work (and any tick-driven FGC) it had pending.
    let lag_primary = issue.saturating_since(primary_sys.virtual_clock());
    let lag_replica = issue.saturating_since(replica_sys.virtual_clock());
    let fgc_primary = primary_sys.fgc_invocations();
    let fgc_replica = replica_sys.fgc_invocations();
    // Bring both candidates' clocks up to the issue time first: members
    // process periodic work lazily, so an un-advanced replica would
    // report a stale (idle) `busy_until` and attract exactly the reads
    // its overdue flush is about to stall.
    primary_sys.advance_to(issue);
    replica_sys.advance_to(issue);
    let device = manager.choose_between(primary, primary_sys, replica, replica_sys, issue);
    let (chosen, other, lag, fgc_before) = if device == primary {
        (primary_sys, replica_sys, lag_primary, fgc_primary)
    } else {
        (replica_sys, primary_sys, lag_replica, fgc_replica)
    };
    member_lag[device].record(lag);
    let mut done = chosen.step(sub, issue);
    let mut recovered_pages = 0;
    let mut lost_pages = 0;
    if !chosen.failed_read_lpns().is_empty() {
        // Uncorrectable pages on the chosen replica: repair by re-reading
        // the surviving copy. Only pages that fail on *both* replicas are
        // lost.
        retry.clear();
        retry.extend_from_slice(chosen.failed_read_lpns());
        let (repaired_at, still_failed) = other.recovery_read(retry, issue);
        done = done.max(repaired_at);
        recovered_pages = retry.len() as u64 - still_failed;
        lost_pages = still_failed;
    }
    let fgc = chosen.fgc_invocations() > fgc_before;
    MirrorOutcome {
        done,
        device,
        fgc,
        recovered_pages,
        lost_pages,
    }
}

/// Wall-clock scheduler telemetry from the last [`run`](ArrayScheduler::run).
///
/// Everything here depends on the driver or on OS thread timing (how
/// often a worker had to steal), so it lives outside the deterministic
/// [`ArrayReport`] — reports stay byte-identical across drivers and
/// thread counts, while this struct tells you what the machinery did to
/// get there. Surfaced in `--bench-json` (`ssdsim-bench/10`), never in
/// `--json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedTelemetry {
    /// Configured worker-thread count.
    pub member_threads: usize,
    /// Scheduling quanta executed
    /// ([`run_reference`](ArrayScheduler::run_reference) adds none: it
    /// has no quantum structure).
    pub epochs: u64,
    /// Total lane executions by a non-owning worker.
    pub steals: u64,
    /// Per-member steal counts, index-aligned with the members.
    pub steal_counts: Vec<u64>,
}

/// Worker-round opcodes (stored in an `AtomicU8` between barriers).
const ROUND_STEPS: u8 = 0;
const ROUND_PREFILL: u8 = 1;
const ROUND_SHUTDOWN: u8 = 2;

/// Drives N member [`SsdSystem`]s in virtual-time lockstep behind one
/// logical volume.
///
/// The scheduler owns the closed loop the single-device engine runs
/// internally — `queue_depth` application threads dealing requests
/// round-robin, each issuing its next request a think-time after its own
/// previous completion — and replaces the "execute on the device" step
/// with *split, route, fan out*: the request's extent is split into one
/// sub-request per touched member via the [`StripeMap`], mirrored reads
/// are steered by the [`ArrayManager`], and the logical request completes
/// when the slowest sub-request does.
///
/// With one member and one chunk-aligned column the split is the
/// identity, the routing is trivial and the member sees the exact request
/// sequence [`SsdSystem::run`] would have produced — so a 1-member array
/// reports byte-identical per-device results to the standalone path.
///
/// # Parallel member stepping
///
/// With [`set_member_threads`](ArrayScheduler::set_member_threads) above
/// 1, independent members advance concurrently on a persistent worker
/// pool. Each scheduling quantum — up to `queue_depth` consecutive
/// requests, whose issue times are all computable up front because the
/// closed loop deals them to distinct threads — is split into a parallel
/// step phase (workers drain member sub-request queues) and a serial
/// merge phase (the driver folds completions back into the schedule in
/// request order). Cross-member decisions — mirrored-read routing
/// through the [`ArrayManager`] — are serial points that truncate the
/// quantum. Every member sees the exact call sequence the reference
/// loop would have issued, so reports are byte-identical for any
/// thread count and identical to
/// [`run_reference`](ArrayScheduler::run_reference); which worker
/// stepped a member is invisible to the simulation.
pub struct ArrayScheduler {
    members: Vec<SsdSystem>,
    stripe: StripeMap,
    manager: ArrayManager,
    workload: Box<dyn Workload>,
    /// Worker threads for the parallel step phase (1 = inline driver).
    member_threads: usize,

    // Closed-loop schedule state, mirroring the single-device engine.
    thread_completion: Vec<SimTime>,
    next_thread: usize,
    schedule: SimTime,

    // Volume-level measurements.
    latencies: LatencyRecorder,
    ops: u64,
    split_requests: u64,
    /// Pages repaired by re-reading the mirror after an uncorrectable
    /// primary read.
    recovered_pages: u64,
    /// Pages unreadable on every replica that holds them.
    lost_pages: u64,

    // Per-member scheduler telemetry. The lag/straggler counters are
    // functions of the simulated timeline only, so they are identical in
    // every driver mode and safe to report; epochs and steals are
    // wall-clock artifacts and stay in `SchedTelemetry`.
    member_lag: Vec<LatencyRecorder>,
    straggler_requests: Vec<u64>,
    straggler_time_us: Vec<u64>,
    straggler_fgc: Vec<u64>,
    steal_counts: Vec<u64>,
    epochs: u64,

    // Quantum-touch epoch marking: O(1) "already in this quantum's
    // touched set?" without clearing an N-sized structure per quantum.
    touch_mark: Vec<u64>,
    touch_epoch: u64,

    // Scratch reused across requests so the steady state allocates nothing.
    sub_scratch: Vec<StripeExtent>,
    retry_scratch: Vec<Lpn>,
}

impl ArrayScheduler {
    /// Builds a scheduler over already-constructed members. Use
    /// [`ArrayConfig::build`](crate::ArrayConfig::build) instead of
    /// calling this directly.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or its length disagrees with the
    /// stripe map.
    #[must_use]
    pub fn new(
        members: Vec<SsdSystem>,
        stripe: StripeMap,
        gc_mode: GcMode,
        workload: Box<dyn Workload>,
    ) -> Self {
        assert!(!members.is_empty(), "array needs at least one member");
        assert_eq!(
            members.len(),
            stripe.members(),
            "member count disagrees with the stripe map"
        );
        let queue_depth = members[0].config().queue_depth.max(1) as usize;
        let n = members.len();
        ArrayScheduler {
            manager: ArrayManager::new(gc_mode, n),
            members,
            stripe,
            workload,
            member_threads: 1,
            thread_completion: vec![SimTime::ZERO; queue_depth],
            next_thread: 0,
            schedule: SimTime::ZERO,
            latencies: LatencyRecorder::new(),
            ops: 0,
            split_requests: 0,
            recovered_pages: 0,
            lost_pages: 0,
            member_lag: vec![LatencyRecorder::new(); n],
            straggler_requests: vec![0; n],
            straggler_time_us: vec![0; n],
            straggler_fgc: vec![0; n],
            steal_counts: vec![0; n],
            epochs: 0,
            touch_mark: vec![0; n],
            touch_epoch: 0,
            sub_scratch: Vec::new(),
            retry_scratch: Vec::new(),
        }
    }

    /// Turns on wall-clock phase profiling on every member (see
    /// [`SsdSystem::enable_phase_profiling`]).
    pub fn enable_phase_profiling(&mut self) {
        for m in &mut self.members {
            m.enable_phase_profiling();
        }
    }

    /// The summed per-phase wall-clock breakdown over all members (all
    /// zero unless [`enable_phase_profiling`] was called before
    /// [`run`](ArrayScheduler::run)).
    ///
    /// [`enable_phase_profiling`]: ArrayScheduler::enable_phase_profiling
    #[must_use]
    pub fn phase_profile(&self) -> jitgc_core::system::PhaseProfile {
        let mut total = jitgc_core::system::PhaseProfile::default();
        for m in &self.members {
            let p = m.phase_profile();
            total.request_execution += p.request_execution;
            total.flush += p.flush;
            total.predictor += p.predictor;
            total.bgc += p.bgc;
            total.reporting += p.reporting;
            total.gc_copy += p.gc_copy;
            total.tick += p.tick;
        }
        total
    }

    /// Sets how many worker threads advance members during the parallel
    /// step phase. Clamped to the member count at run time; 1 (the
    /// default) keeps everything on the calling thread. Any value
    /// produces byte-identical reports — the knob trades wall-clock time
    /// only.
    pub fn set_member_threads(&mut self, threads: usize) {
        self.member_threads = threads.max(1);
    }

    /// The configured worker-thread count for parallel member stepping.
    #[must_use]
    pub fn member_threads(&self) -> usize {
        self.member_threads
    }

    /// Wall-clock scheduler telemetry from the last run (zeros before
    /// the first). See [`SchedTelemetry`] for why this is separate from
    /// the report.
    #[must_use]
    pub fn sched_telemetry(&self) -> SchedTelemetry {
        SchedTelemetry {
            member_threads: self.member_threads,
            epochs: self.epochs,
            steals: self.steal_counts.iter().sum(),
            steal_counts: self.steal_counts.clone(),
        }
    }

    /// Switches every member's quiescence fast-forward (see
    /// [`SsdSystem::set_fast_forward`]; on by default). Byte-identical
    /// reports either way — an A/B wall-clock switch. Works under every
    /// driver and any worker-thread count: a skip only moves a
    /// member's virtual clock to where the per-tick loop would have put
    /// it, so `time_behind` ordering is unaffected.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        for member in &mut self.members {
            member.set_fast_forward(enabled);
        }
    }

    /// Total flusher ticks elided by the quiescence fast-forward across
    /// all members.
    #[must_use]
    pub fn ticks_skipped(&self) -> u64 {
        self.members.iter().map(SsdSystem::ticks_skipped).sum()
    }

    /// Total fast-forwarded idle spans across all members.
    #[must_use]
    pub fn ff_spans(&self) -> u64 {
        self.members.iter().map(SsdSystem::ff_spans).sum()
    }

    /// Per-member phase profiles, index-aligned with
    /// [`members`](ArrayScheduler::members) (all zero unless
    /// [`enable_phase_profiling`](ArrayScheduler::enable_phase_profiling)
    /// was called before the run).
    #[must_use]
    pub fn member_profiles(&self) -> Vec<jitgc_core::system::PhaseProfile> {
        self.members.iter().map(SsdSystem::phase_profile).collect()
    }

    /// Read-only access to the members (for tests and signal polling).
    #[must_use]
    pub fn members(&self) -> &[SsdSystem] {
        &self.members
    }

    /// Current JIT-GC telemetry of every member — what a host-side array
    /// manager polls to decide routing and staggering.
    #[must_use]
    pub fn member_signals(&self) -> Vec<GcSignals> {
        self.members.iter().map(SsdSystem::gc_signals).collect()
    }

    /// Runs the workload to exhaustion and reports.
    ///
    /// # Panics
    ///
    /// Panics if any member's FTL signals an unrecoverable condition,
    /// which indicates a misconfigured experiment.
    pub fn run(&mut self) -> ArrayReport {
        match self.member_threads.min(self.members.len()).max(1) {
            1 => self.run_steal_inline(),
            threads => self.run_steal_pool(threads),
        }
    }

    /// The reference implementation of [`run`](ArrayScheduler::run):
    /// one request at a time, exactly the closed-loop schedule of the
    /// single-device engine, with no quanta, lanes or worker threads. It
    /// ignores the member-thread count. Its report is byte-identical to
    /// `run`'s at any thread count — the identity tests compare the two.
    ///
    /// # Panics
    ///
    /// As [`run`](ArrayScheduler::run).
    pub fn run_reference(&mut self) -> ArrayReport {
        self.manager.apply_stagger(&mut self.members);
        if self.members[0].config().prefill {
            for m in &mut self.members {
                m.prefill();
            }
        }
        while let Some(req) = self.workload.next_request() {
            let thread = self.next_thread;
            self.next_thread = (self.next_thread + 1) % self.thread_completion.len();
            let issue = self.thread_completion[thread] + req.gap;
            self.schedule = self.schedule.max(issue);
            let outcome = self.dispatch(req, issue);
            self.commit_request(thread, issue, &outcome);
        }
        let end = self.end_time();
        self.build_report(end)
    }

    /// Work-stealing driver degenerated to one thread: the same quantum
    /// structure as the pooled driver, executed inline without locks,
    /// barriers, or worker threads. Exists so `--member-threads 1`
    /// exercises the exact dealing/merge code path the pool uses.
    fn run_steal_inline(&mut self) -> ArrayReport {
        self.manager.apply_stagger(&mut self.members);
        let do_prefill = self.members[0].config().prefill;
        let queue_depth = self.thread_completion.len();
        let mut lanes: Vec<Lane> = std::mem::take(&mut self.members)
            .into_iter()
            .map(Lane::new)
            .collect();
        if do_prefill {
            for lane in &mut lanes {
                lane.system.prefill();
            }
        }
        let mut q = QuantumState::new(queue_depth, lanes.len());
        loop {
            if !self.serial_phase(&mut lanes[..], &mut q) {
                break;
            }
            for &member in &q.touched {
                lanes[member].run_queue();
            }
        }
        for (i, lane) in lanes.into_iter().enumerate() {
            self.absorb_lane(i, lane);
        }
        let end = self.end_time();
        self.build_report(end)
    }

    /// Work-stealing driver: between the epoch-ordered serial sections,
    /// workers claim the laggiest eligible members from a sharded agenda
    /// and steal across shards once their own runs dry. The serial
    /// sections lock only the lanes the quantum touched, so driver cost
    /// per quantum is O(touched ∪ queue-depth), independent of the
    /// member count.
    fn run_steal_pool(&mut self, threads: usize) -> ArrayReport {
        self.manager.apply_stagger(&mut self.members);
        let do_prefill = self.members[0].config().prefill;
        let queue_depth = self.thread_completion.len();
        let lanes: Vec<Mutex<Lane>> = std::mem::take(&mut self.members)
            .into_iter()
            .map(|system| Mutex::new(Lane::new(system)))
            .collect();
        let queue = StealQueue::new(lanes.len(), threads);
        let round = AtomicU8::new(ROUND_STEPS);
        let start = Barrier::new(threads + 1);
        let finish = Barrier::new(threads + 1);

        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (lanes, queue, round) = (&lanes, &queue, &round);
                let (start, finish) = (&start, &finish);
                scope.spawn(move || loop {
                    start.wait();
                    let op = round.load(Ordering::Acquire);
                    if op == ROUND_SHUTDOWN {
                        finish.wait();
                        break;
                    }
                    while let Some((member, stolen)) = queue.pop(worker) {
                        let mut lane = lanes[member].lock().expect("a member panicked");
                        if op == ROUND_PREFILL {
                            lane.system.prefill();
                            continue;
                        }
                        if stolen {
                            lane.steals += 1;
                        }
                        lane.run_queue();
                    }
                    finish.wait();
                });
            }

            let run_round = |op: u8| {
                round.store(op, Ordering::Release);
                start.wait();
                finish.wait();
            };
            if do_prefill {
                let all: Vec<usize> = (0..lanes.len()).collect();
                queue.publish(&all);
                run_round(ROUND_PREFILL);
            }

            let mut q = QuantumState::new(queue_depth, lanes.len());
            let mut table = LazyLanes::new(&lanes);
            loop {
                let more = self.serial_phase(&mut table, &mut q);
                if !more {
                    break;
                }
                let horizon = self.schedule;
                order_agenda(&mut table, &mut q.touched, &mut q.agenda_keys, horizon);
                table.release();
                queue.publish(&q.touched);
                run_round(ROUND_STEPS);
            }
            table.release();
            run_round(ROUND_SHUTDOWN);
        });

        for (i, lane) in lanes.into_iter().enumerate() {
            self.absorb_lane(i, lane.into_inner().expect("a member panicked"));
        }
        let end = self.end_time();
        self.build_report(end)
    }

    /// Moves a finished lane's member and telemetry back into `self`.
    fn absorb_lane(&mut self, index: usize, lane: Lane) {
        debug_assert_eq!(index, self.members.len());
        self.members.push(lane.system);
        self.member_lag[index].merge(&lane.lag);
        self.steal_counts[index] += lane.steals;
    }

    /// One epoch-ordered serial section: folds the previous round's
    /// results back into the closed-loop schedule, executes any deferred
    /// mirrored read, then deals the next quantum into member queues.
    /// Returns `false` once the quantum comes up empty — the workload is
    /// exhausted and fully merged.
    fn serial_phase<T: LaneTable + ?Sized>(&mut self, table: &mut T, q: &mut QuantumState) -> bool {
        if !q.quantum.is_empty() {
            self.merge_quantum(table, q);
        }
        if let Some(req) = q.pending.take() {
            self.dispatch_mirrored_read(req, table);
        }
        self.touch_epoch += 1;
        while !q.exhausted && q.quantum.len() < q.queue_depth {
            let Some(req) = self.workload.next_request() else {
                q.exhausted = true;
                break;
            };
            if req.kind == IoKind::Read && self.stripe.redundancy() == Redundancy::Mirror {
                if q.quantum.is_empty() {
                    self.dispatch_mirrored_read(req, table);
                } else {
                    // Routing must see the quantum's effects: flush it,
                    // handle the read next round.
                    q.pending = Some(req);
                    break;
                }
            } else {
                self.enqueue_sub_requests(req, table, q);
            }
        }
        if q.quantum.is_empty() {
            false
        } else {
            self.epochs += 1;
            true
        }
    }

    /// Assigns `req` its closed-loop thread and issue time, then deals
    /// one sub-request per touched member (both replicas for mirrored
    /// writes/trims) into the member queues for the next parallel round.
    fn enqueue_sub_requests<T: LaneTable + ?Sized>(
        &mut self,
        req: IoRequest,
        table: &mut T,
        q: &mut QuantumState,
    ) {
        let thread = self.next_thread;
        self.next_thread = (self.next_thread + 1) % self.thread_completion.len();
        let issue = self.thread_completion[thread] + req.gap;
        self.schedule = self.schedule.max(issue);
        let req_idx = q.quantum.len();
        q.quantum.push((thread, issue));
        self.sub_scratch.clear();
        self.stripe
            .split(req.lpn.0, req.pages, &mut self.sub_scratch);
        if self.sub_scratch.len() > 1 {
            self.split_requests += 1;
        }
        for i in 0..self.sub_scratch.len() {
            let extent = self.sub_scratch[i];
            let (primary, replica) = self.stripe.devices_of(extent.column);
            let sub = IoRequest {
                gap: req.gap,
                kind: req.kind,
                lpn: Lpn(extent.member_lpn),
                pages: extent.pages,
            };
            self.touch(primary, &mut q.touched);
            table.lane(primary).queue.push((sub, issue));
            // An unmirrored read's uncorrectable pages are lost (counted
            // at merge); mirrored reads never reach this path.
            q.subs.push((
                req_idx,
                primary,
                req.kind == IoKind::Read && replica.is_none(),
            ));
            if let Some(replica) = replica {
                self.touch(replica, &mut q.touched);
                table.lane(replica).queue.push((sub, issue));
                q.subs.push((req_idx, replica, false));
            }
        }
    }

    /// Adds `member` to the quantum's touched set if it is not there yet
    /// (O(1) via the epoch mark, no per-quantum clearing).
    fn touch(&mut self, member: usize, touched: &mut Vec<usize>) {
        if self.touch_mark[member] != self.touch_epoch {
            self.touch_mark[member] = self.touch_epoch;
            touched.push(member);
        }
    }

    /// Folds a finished parallel round back into the closed-loop schedule
    /// in request order: logical completion = slowest sub-request, then
    /// thread completion / latency / straggler accounting exactly as the
    /// serial loop performs per request. Only the quantum's touched lanes
    /// are read and reset.
    fn merge_quantum<T: LaneTable + ?Sized>(&mut self, table: &mut T, q: &mut QuantumState) {
        q.outcomes.clear();
        q.outcomes
            .extend(q.quantum.iter().map(|&(_, issue)| ReqOutcome::new(issue)));
        for &(req_idx, member, counts_lost) in &q.subs {
            // Each lane's results are in its queue order, which is the
            // order its subs were dealt — a per-member cursor aligns them.
            let result = table.lane(member).results[q.cursors[member]];
            q.cursors[member] += 1;
            q.outcomes[req_idx].observe(member, result.done, result.fgc);
            if counts_lost {
                self.lost_pages += result.failed_reads;
            }
        }
        for &member in &q.touched {
            table.lane(member).results.clear();
            q.cursors[member] = 0;
        }
        for (&(thread, issue), outcome) in q.quantum.iter().zip(q.outcomes.iter()) {
            self.commit_request(thread, issue, outcome);
        }
        q.quantum.clear();
        q.subs.clear();
        q.touched.clear();
    }

    /// Finishes one logical request: thread completion, volume latency,
    /// op count, and straggler attribution for the member that held the
    /// request back (multi-member requests only — see [`ReqOutcome`]).
    fn commit_request(&mut self, thread: usize, issue: SimTime, outcome: &ReqOutcome) {
        self.thread_completion[thread] = outcome.completion;
        self.latencies
            .record(outcome.completion.saturating_since(issue));
        self.ops += 1;
        if outcome.subs >= 2 && outcome.straggler != usize::MAX {
            self.straggler_requests[outcome.straggler] += 1;
            self.straggler_time_us[outcome.straggler] += outcome
                .completion
                .saturating_since(outcome.runner_up)
                .as_micros();
            if outcome.fgc {
                self.straggler_fgc[outcome.straggler] += 1;
            }
        }
    }

    /// Serial-phase handler for a mirrored read: the replica choice reads
    /// both members' live GC signals, so it cannot overlap other work.
    fn dispatch_mirrored_read<T: LaneTable + ?Sized>(&mut self, req: IoRequest, table: &mut T) {
        let thread = self.next_thread;
        self.next_thread = (self.next_thread + 1) % self.thread_completion.len();
        let issue = self.thread_completion[thread] + req.gap;
        self.schedule = self.schedule.max(issue);
        self.sub_scratch.clear();
        self.stripe
            .split(req.lpn.0, req.pages, &mut self.sub_scratch);
        if self.sub_scratch.len() > 1 {
            self.split_requests += 1;
        }
        let mut outcome = ReqOutcome::new(issue);
        for i in 0..self.sub_scratch.len() {
            let extent = self.sub_scratch[i];
            let (primary, replica) = self.stripe.devices_of(extent.column);
            let replica = replica.expect("mirrored read dispatched without a replica");
            let sub = IoRequest {
                gap: req.gap,
                kind: req.kind,
                lpn: Lpn(extent.member_lpn),
                pages: extent.pages,
            };
            let (p, r) = table.pair(primary, replica);
            let routed = route_mirrored_sub(
                &mut self.manager,
                &mut self.retry_scratch,
                &mut self.member_lag,
                (primary, &mut p.system),
                (replica, &mut r.system),
                sub,
                issue,
            );
            self.recovered_pages += routed.recovered_pages;
            self.lost_pages += routed.lost_pages;
            outcome.observe(routed.device, routed.done, routed.fgc);
        }
        self.commit_request(thread, issue, &outcome);
    }

    /// The run's end time: the last thread completion or scheduled issue.
    fn end_time(&self) -> SimTime {
        self.thread_completion
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.schedule)
    }

    /// Splits one logical request, fans the sub-requests out to their
    /// members at `issue`, and returns the request's outcome (completion
    /// = the slowest sub-request's, plus straggler attribution).
    fn dispatch(&mut self, req: IoRequest, issue: SimTime) -> ReqOutcome {
        self.sub_scratch.clear();
        self.stripe
            .split(req.lpn.0, req.pages, &mut self.sub_scratch);
        if self.sub_scratch.len() > 1 {
            self.split_requests += 1;
        }
        let mut outcome = ReqOutcome::new(issue);
        for i in 0..self.sub_scratch.len() {
            let extent = self.sub_scratch[i];
            let (primary, replica) = self.stripe.devices_of(extent.column);
            let sub = IoRequest {
                gap: req.gap,
                kind: req.kind,
                lpn: Lpn(extent.member_lpn),
                pages: extent.pages,
            };
            match (req.kind, replica) {
                (IoKind::Read, Some(replica)) => {
                    let (p, r) = pair_mut(&mut self.members, primary, replica);
                    let routed = route_mirrored_sub(
                        &mut self.manager,
                        &mut self.retry_scratch,
                        &mut self.member_lag,
                        (primary, p),
                        (replica, r),
                        sub,
                        issue,
                    );
                    self.recovered_pages += routed.recovered_pages;
                    self.lost_pages += routed.lost_pages;
                    outcome.observe(routed.device, routed.done, routed.fgc);
                }
                (IoKind::Read, None) => {
                    let (done, fgc) = self.step_member(primary, sub, issue);
                    // No redundancy: every uncorrectable page is lost.
                    self.lost_pages += self.members[primary].failed_read_lpns().len() as u64;
                    outcome.observe(primary, done, fgc);
                }
                (_, Some(replica)) => {
                    // Writes and trims must keep the replicas coherent.
                    let (done, fgc) = self.step_member(primary, sub, issue);
                    outcome.observe(primary, done, fgc);
                    let (done, fgc) = self.step_member(replica, sub, issue);
                    outcome.observe(replica, done, fgc);
                }
                (_, None) => {
                    let (done, fgc) = self.step_member(primary, sub, issue);
                    outcome.observe(primary, done, fgc);
                }
            }
        }
        outcome
    }

    /// Steps one member with the same telemetry [`Lane::run_queue`]
    /// records, so serial and parallel runs report identical lag
    /// histograms and FGC attribution.
    fn step_member(&mut self, member: usize, sub: IoRequest, issue: SimTime) -> (SimTime, bool) {
        let lag = issue.saturating_since(self.members[member].virtual_clock());
        self.member_lag[member].record(lag);
        let fgc_before = self.members[member].fgc_invocations();
        let done = self.members[member].step(sub, issue);
        (done, self.members[member].fgc_invocations() > fgc_before)
    }

    fn build_report(&mut self, end: SimTime) -> ArrayReport {
        let member_reports: Vec<_> = self.members.iter_mut().map(|m| m.finalize(end)).collect();
        let secs = end.as_secs_f64().max(f64::MIN_POSITIVE);
        let lat = |q: f64| self.latencies.percentile(q).map_or(0, |d| d.as_micros());
        let host_pages: u64 = member_reports.iter().map(|r| r.host_pages_written).sum();
        let nand_pages: u64 = member_reports.iter().map(|r| r.nand_pages_programmed).sum();
        let member_sched = (0..self.members.len())
            .map(|i| {
                let lag = &self.member_lag[i];
                MemberSched {
                    steps: lag.count(),
                    lag_mean_us: lag.mean().map_or(0, |d| d.as_micros()),
                    lag_p99_us: lag.percentile(0.99).map_or(0, |d| d.as_micros()),
                    lag_max_us: lag.max().map_or(0, |d| d.as_micros()),
                    straggler_requests: self.straggler_requests[i],
                    straggler_fgc_requests: self.straggler_fgc[i],
                    straggler_time_us: self.straggler_time_us[i],
                }
            })
            .collect();
        ArrayReport {
            members: self.members.len(),
            chunk_pages: self.stripe.chunk_pages(),
            redundancy: self.stripe.redundancy().name().to_owned(),
            gc_mode: self.manager.mode().name().to_owned(),
            policy: member_reports[0].policy.clone(),
            workload: self.workload.name().to_owned(),
            duration_secs: secs,
            ops: self.ops,
            iops: self.ops as f64 / secs,
            split_requests: self.split_requests,
            routed_reads: self.manager.routed_reads(),
            latency_mean_us: self.latencies.mean().map_or(0, |d| d.as_micros()),
            latency_p50_us: lat(0.50),
            latency_p99_us: lat(0.99),
            latency_p999_us: lat(0.999),
            latency_max_us: self.latencies.max().map_or(0, |d| d.as_micros()),
            waf: (host_pages > 0).then(|| nand_pages as f64 / host_pages as f64),
            nand_erases: member_reports.iter().map(|r| r.nand_erases).sum(),
            erase_spread: WearReport::from_counts(member_reports.iter().map(|r| r.nand_erases)),
            fgc_request_stalls: member_reports.iter().map(|r| r.fgc_request_stalls).sum(),
            bgc_blocks: member_reports.iter().map(|r| r.bgc_blocks).sum(),
            member_sched,
            degraded: {
                let any_member_degraded = member_reports.iter().any(|r| r.degraded.is_some());
                (any_member_degraded || self.recovered_pages > 0 || self.lost_pages > 0).then(
                    || ArrayDegraded {
                        degraded_members: member_reports
                            .iter()
                            .filter(|r| r.degraded.as_ref().is_some_and(|d| d.read_only))
                            .count() as u64,
                        recovered_pages: self.recovered_pages,
                        lost_pages: self.lost_pages,
                    },
                )
            },
            member_reports,
        }
    }
}

/// Reorders the touched set laggiest-first for the next round: most
/// queued sub-requests, then most virtual time behind the horizon, then
/// lowest index. Purely a wall-clock optimization (LPT-style longest
/// processing time first) — execution order cannot affect results.
fn order_agenda<T: LaneTable + ?Sized>(
    table: &mut T,
    touched: &mut [usize],
    keys: &mut Vec<(usize, u64, u64)>,
    horizon: SimTime,
) {
    keys.clear();
    for &member in touched.iter() {
        let lane = table.lane(member);
        keys.push((
            member,
            lane.queue.len() as u64,
            lane.system.time_behind(horizon).as_micros(),
        ));
    }
    keys.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    for (slot, key) in touched.iter_mut().zip(keys.iter()) {
        *slot = key.0;
    }
}

impl std::fmt::Debug for ArrayScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayScheduler")
            .field("members", &self.members.len())
            .field("stripe", &self.stripe)
            .field("gc_mode", &self.manager.mode())
            .field("ops", &self.ops)
            .finish_non_exhaustive()
    }
}
