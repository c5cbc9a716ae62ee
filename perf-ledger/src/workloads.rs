//! The four workloads and the code that drives the program through its
//! public API.
//!
//! Each workload is a list of *units* — one aged device, one array or one
//! service — that a *pass* sets up and runs in turn. Set-up (construction,
//! aging prefill, trace generation) and run are timed apart. The driving
//! loops are the program's own closed loops, re-stated here so that spans
//! can sit around every call: `SsdSystem::run`'s loop for single devices
//! and `run_closed_loop`'s event loop for the service
//! (every `--trace 1` run checks, with [`reference_report`], that both
//! give byte-identical reports).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jitgc_array::{ArrayConfig, ArrayReport, ArraySched, ArrayScheduler, GcMode, Redundancy};
use jitgc_core::policy::JitGc;
use jitgc_core::system::{PhaseProfile, SimReport, SsdSystem, SystemConfig};
use jitgc_service::{
    CompletionStatus, Service, ServiceConfig, ServiceReport, TenantProfile, TenantSpec,
    TierThresholds,
};
use jitgc_sim::stats::LatencyRecorder;
use jitgc_sim::{SimDuration, SimTime};
use jitgc_workload::{
    BenchmarkKind, IoKind, IoRequest, NullWorkload, Synthetic, Workload, WorkloadConfig, WriteMix,
};

use crate::trace::{GenLog, Kind, Probe, SpanId};

/// Simulated seconds of each paper benchmark in `paper-mix`.
const PAPER_MIX_SECS: u64 = 1_200;
/// Simulated seconds of `idle-diurnal` (500 h of a mostly idle device).
const IDLE_SECS: u64 = 1_800_000;
/// Simulated seconds of `array-64`.
const ARRAY_SECS: u64 = 30;
/// Simulated seconds each `service-tenants` tenant stream emits.
const SERVICE_SECS: u64 = 900;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The six paper benchmarks back to back on aged `default_sim` devices.
    PaperMix,
    /// TPC-C at 0.05 IOPS in 500-request bursts: a long, mostly idle run.
    IdleDiurnal,
    /// A 64-member RAID-0 array running YCSB on one member thread.
    Array64,
    /// The `ssdsimd` default three-tenant roster, in process.
    ServiceTenants,
}

impl Scenario {
    /// Every workload, in ledger order.
    pub const ALL: [Scenario; 4] = [
        Scenario::PaperMix,
        Scenario::IdleDiurnal,
        Scenario::Array64,
        Scenario::ServiceTenants,
    ];

    /// The workload's name on the command line and in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::PaperMix => "paper-mix",
            Scenario::IdleDiurnal => "idle-diurnal",
            Scenario::Array64 => "array-64",
            Scenario::ServiceTenants => "service-tenants",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    fn units(self, seed: u64) -> Vec<Unit> {
        match self {
            Scenario::PaperMix => BenchmarkKind::all()
                .into_iter()
                .map(|kind| Unit::Single(single_unit(kind, PAPER_MIX_SECS, 250.0, 1_024.0, seed)))
                .collect(),
            Scenario::IdleDiurnal => vec![Unit::Single(single_unit(
                BenchmarkKind::TpcC,
                IDLE_SECS,
                0.05,
                50.0,
                seed,
            ))],
            Scenario::Array64 => vec![Unit::Array(array_unit(seed))],
            Scenario::ServiceTenants => vec![Unit::Service(service_config(seed))],
        }
    }
}

/// Counts and sums over every unit of a pass. Everything except
/// `profile`, `steals` and `epochs` (host-time and thread-timing
/// artifacts) is a function of the simulated timeline only.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests the benchmark handed to the program.
    pub attempted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Rejected writes, failed host reads, requests never completed.
    pub failed: u64,
    /// Requests refused by design (service `Busy` sheds).
    pub refused: u64,
    /// Requests the workload generators produced.
    pub generated: u64,
    pub host_pages: u64,
    pub nand_pages: u64,
    pub nand_erases: u64,
    /// Simulated run length summed over units, in seconds.
    pub sim_secs: f64,
    pub lat: Latency,
    pub read_hits: u64,
    pub read_misses: u64,
    pub accuracy_sum: f64,
    pub accuracy_n: u64,
    pub ticks_total: u64,
    pub ticks_skipped: u64,
    pub bgc_blocks: u64,
    pub gc_pages_migrated: u64,
    pub fgc_stalls: u64,
    pub throttled: u64,
    pub sip_eligible: u64,
    pub sip_filtered: u64,
    pub split_requests: u64,
    pub straggler_requests: u64,
    pub straggler_time_us: u64,
    pub member_steps: u64,
    pub steals: u64,
    pub epochs: u64,
    pub shed: u64,
    pub deferred: u64,
    pub red_black_us: u64,
    pub service_us: u64,
    /// The device report's ratios where the cache and FTL counters are out
    /// of reach (the service owns its engine).
    pub hit_ratio: Option<f64>,
    pub sip_fraction: Option<f64>,
    /// Summed engine phase profile (traced passes only; host time).
    pub profile: PhaseProfile,
}

/// Simulated request latency, pooled over every completed request.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    pub p50_us: u64,
    pub p999_us: u64,
    pub samples: u64,
    /// p999 of the read-sensitive class (see the README).
    pub reader_p999_us: u64,
    pub reader_samples: u64,
}

/// One pass over every unit of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds of construction, aging and trace generation.
    pub setup_s: f64,
    /// Host seconds of the run phase.
    pub run_s: f64,
    /// The units' deterministic reports, concatenated.
    pub report: String,
    pub tally: Tally,
    /// Failed output checks.
    pub violations: Vec<String>,
}

enum Unit {
    Single(SingleUnit),
    Array(ArrayConfigured),
    Service(ServiceConfig),
}

enum Ready {
    Single(Box<SsdSystem>, Box<dyn Workload>),
    Array(Box<ArrayScheduler>, Arc<GenCounter>),
    Service(Box<Service>, Vec<Vec<IoRequest>>),
}

/// Runs one pass. With the probe on, engine phase profiling is on too.
pub fn pass(scenario: Scenario, seed: u64, probe: &mut Probe) -> Pass {
    let mut out = Pass {
        setup_s: 0.0,
        run_s: 0.0,
        report: String::new(),
        tally: Tally::default(),
        violations: Vec::new(),
    };
    let mut pooled = Pools::default();
    for unit in scenario.units(seed) {
        let t0 = Instant::now();
        let root = probe.open(Kind::Setup, SpanId::NONE);
        let ready = unit.setup(probe, root);
        probe.close(root);
        out.setup_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let root = probe.open(Kind::Run, SpanId::NONE);
        match ready {
            Ready::Single(sys, wl) => run_single(*sys, wl, probe, root, &mut out, &mut pooled),
            Ready::Array(sched, gen) => run_array(*sched, &gen, probe, root, &mut out),
            Ready::Service(svc, traces) => {
                run_service(*svc, traces, probe, root, &mut out, &mut pooled);
            }
        }
        probe.close(root);
        out.run_s += t0.elapsed().as_secs_f64();
    }
    if scenario != Scenario::Array64 {
        out.tally.lat = pooled.latency(scenario);
    }
    check_totals(&mut out);
    out
}

/// Host seconds to set up every unit once, discarding the result.
pub fn setup_only(scenario: Scenario, seed: u64) -> f64 {
    let mut probe = Probe::off();
    let mut secs = 0.0;
    for unit in scenario.units(seed) {
        let t0 = Instant::now();
        let ready = unit.setup(&mut probe, SpanId::NONE);
        secs += t0.elapsed().as_secs_f64();
        // Tear-down is not set-up; one unit is held at a time, as in a pass.
        drop(ready);
    }
    secs
}

impl Unit {
    fn setup(self, probe: &mut Probe, root: SpanId) -> Ready {
        match self {
            Unit::Single(u) => {
                let workload = u.kind.build(u.workload);
                // The engine pulls nothing from its own workload when
                // stepped externally; the stub names the report and sizes
                // the prefill exactly as the real workload would.
                let stub = NullWorkload::new(
                    workload.name(),
                    workload.working_set_pages(),
                    workload.write_mix(),
                );
                let policy = JitGc::from_system_config(&u.system);
                let prefill = u.system.prefill;
                let mut sys = SsdSystem::new(u.system, Box::new(policy), Box::new(stub));
                if probe.is_on() {
                    sys.enable_phase_profiling();
                }
                if prefill {
                    probe.leaf(Kind::Prefill, root, || sys.prefill());
                }
                Ready::Single(Box::new(sys), workload)
            }
            Unit::Array(a) => {
                let counter = Arc::new(GenCounter {
                    count: AtomicU64::new(0),
                    log: probe.is_on().then(|| Mutex::new(GenLog::default())),
                });
                let workload = Counted {
                    inner: a.kind.build(a.workload),
                    counter: Arc::clone(&counter),
                };
                let mut sched = a.config.build(
                    |system| Box::new(JitGc::from_system_config(system)),
                    Box::new(workload),
                );
                if probe.is_on() {
                    sched.enable_phase_profiling();
                }
                Ready::Array(Box::new(sched), counter)
            }
            Unit::Service(cfg) => {
                let traces = (0..cfg.tenants.len())
                    .map(|i| tenant_trace(&cfg, i, probe, root))
                    .collect();
                let policy = JitGc::from_system_config(&cfg.system);
                Ready::Service(Box::new(Service::new(cfg, Box::new(policy))), traces)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Single device: `paper-mix`, `idle-diurnal`
// ---------------------------------------------------------------------

struct SingleUnit {
    kind: BenchmarkKind,
    system: SystemConfig,
    workload: WorkloadConfig,
}

/// The standard experiment cell (`Experiment::run` in `jitgc-bench`): an
/// aged `default_sim` device whose working set leaves half of `C_OP`
/// unused, JIT-GC, bursty arrivals.
fn single_unit(kind: BenchmarkKind, secs: u64, iops: f64, burst: f64, seed: u64) -> SingleUnit {
    let system = SystemConfig::default_sim();
    let workload = WorkloadConfig::builder()
        .working_set_pages(system.ftl.user_pages() - system.ftl.op_pages() / 2)
        .duration(SimDuration::from_secs(secs))
        .mean_iops(iops)
        .burst_mean(burst)
        .seed(seed)
        .build();
    SingleUnit {
        kind,
        system,
        workload,
    }
}

/// Latency pools shared by the units of a pass.
#[derive(Default)]
struct Pools {
    all: Option<LatencyRecorder>,
    reads: Option<LatencyRecorder>,
    /// The service report's reader-tenant p999 and sample count.
    reader: Option<(u64, u64)>,
}

impl Pools {
    fn record(&mut self, latency: SimDuration, read: bool) {
        self.all
            .get_or_insert_with(LatencyRecorder::new)
            .record(latency);
        if read {
            self.reads
                .get_or_insert_with(LatencyRecorder::new)
                .record(latency);
        }
    }

    fn latency(&self, scenario: Scenario) -> Latency {
        let us = |r: &Option<LatencyRecorder>, q: f64| {
            r.as_ref()
                .and_then(|r| r.percentile(q))
                .map_or(0, |d| d.as_micros())
        };
        let count = |r: &Option<LatencyRecorder>| r.as_ref().map_or(0, LatencyRecorder::count);
        let (reader_p999_us, reader_samples) = match (scenario, self.reader) {
            (Scenario::ServiceTenants, Some(reader)) => reader,
            _ => (us(&self.reads, 0.999), count(&self.reads)),
        };
        Latency {
            p50_us: us(&self.all, 0.50),
            p999_us: us(&self.all, 0.999),
            samples: count(&self.all),
            reader_p999_us,
            reader_samples,
        }
    }
}

/// `SsdSystem::run`'s closed loop: `queue_depth` application threads deal
/// the stream round-robin, each issuing a think-time after its own
/// previous completion.
fn run_single(
    mut sys: SsdSystem,
    mut workload: Box<dyn Workload>,
    probe: &mut Probe,
    root: SpanId,
    out: &mut Pass,
    pools: &mut Pools,
) {
    let queue_depth = sys.config().queue_depth.max(1) as usize;
    let mut thread_completion = vec![SimTime::ZERO; queue_depth];
    let mut next_thread = 0;
    let mut schedule = SimTime::ZERO;
    let (mut issued, mut reads) = (0u64, 0u64);
    while let Some(req) = probe.leaf(Kind::Gen, root, || workload.next_request()) {
        let thread = next_thread;
        next_thread = (next_thread + 1) % queue_depth;
        let issue = thread_completion[thread] + req.gap;
        schedule = schedule.max(issue);
        let done = probe.leaf(Kind::Step, root, || sys.step(req, issue));
        thread_completion[thread] = done;
        let read = req.kind == IoKind::Read;
        pools.record(done.saturating_since(issue), read);
        issued += 1;
        reads += u64::from(read);
    }
    let end = thread_completion
        .iter()
        .copied()
        .max()
        .unwrap_or(SimTime::ZERO)
        .max(schedule);
    let report = probe.leaf(Kind::Finalize, root, || sys.finalize(end));

    // The engine's completion count (`report.ops`) is checked against
    // `issued` by the conservation law in `check_totals`.
    let name = &report.workload;
    if report.reads != reads {
        out.violations.push(format!(
            "{name}: engine counted {} reads, the benchmark issued {reads}",
            report.reads
        ));
    }
    let t = &mut out.tally;
    t.generated += issued;
    t.attempted += issued;
    let failed = add_device(t, &report, &mut out.violations);
    t.failed += failed;
    t.completed += report.ops.saturating_sub(failed);
    t.sim_secs += report.duration_secs;
    let cache = sys.cache().stats();
    t.read_hits += cache.read_hits;
    t.read_misses += cache.read_misses;
    let ftl = sys.ftl().stats();
    t.sip_eligible += ftl.sip_eligible_selections;
    t.sip_filtered += ftl.sip_filtered_selections;
    add_ticks(t, &sys);
    add_profile(&mut t.profile, &sys.phase_profile());
    out.report.push_str(&report.to_json().to_compact());
    out.report.push('\n');
}

/// Requests the engine dispatched, by its per-kind counters. The engine
/// bumps these when a request starts and `ops` when it completes, so the
/// two are kept apart.
fn dispatched(r: &SimReport) -> u64 {
    r.reads + r.buffered_writes + r.direct_writes + r.trims
}

/// Folds one device report's device-side counters into the tally, checks
/// its conservation laws, and returns its failed requests (writes
/// rejected by a read-only device plus uncorrectable host reads).
fn add_device(t: &mut Tally, r: &SimReport, violations: &mut Vec<String>) -> u64 {
    if dispatched(r) != r.ops {
        violations.push(format!(
            "{}: engine dispatched {} requests but completed {}",
            r.workload,
            dispatched(r),
            r.ops
        ));
    }
    t.host_pages += r.host_pages_written;
    t.nand_pages += r.nand_pages_programmed;
    t.nand_erases += r.nand_erases;
    t.bgc_blocks += r.bgc_blocks;
    t.gc_pages_migrated += r.gc_pages_migrated;
    t.fgc_stalls += r.fgc_request_stalls + r.fgc_flush_stalls;
    t.throttled += r.throttled_requests;
    if let Some(a) = r.prediction_accuracy_percent {
        t.accuracy_sum += a;
        t.accuracy_n += 1;
    }
    check_waf(
        &r.workload,
        r.host_pages_written,
        r.nand_pages_programmed,
        r.waf,
        violations,
    );
    r.degraded
        .as_ref()
        .map_or(0, |d| d.rejected_requests + d.host_read_failures)
}

fn check_waf(name: &str, host: u64, nand: u64, waf: Option<f64>, violations: &mut Vec<String>) {
    if nand < host {
        violations.push(format!(
            "{name}: {nand} NAND pages programmed < {host} host pages written"
        ));
    }
    match waf {
        Some(w) if host > 0 && w < 1.0 => violations.push(format!("{name}: WAF {w} < 1")),
        None if host > 0 => violations.push(format!("{name}: WAF missing with host writes")),
        _ => {}
    }
}

/// Flusher ticks the engine owed up to its virtual clock (its first tick
/// falls in `[period, 2 × period)`, staggered or not).
fn add_ticks(t: &mut Tally, sys: &SsdSystem) {
    let period = sys.config().flusher_period.as_micros().max(1);
    let ticks = (sys.virtual_clock().as_micros() / period).saturating_sub(1);
    t.ticks_total += ticks;
    t.ticks_skipped += sys.ticks_skipped();
}

fn add_profile(sum: &mut PhaseProfile, p: &PhaseProfile) {
    sum.request_execution += p.request_execution;
    sum.flush += p.flush;
    sum.predictor += p.predictor;
    sum.bgc += p.bgc;
    sum.reporting += p.reporting;
    sum.gc_copy += p.gc_copy;
    sum.tick += p.tick;
}

// ---------------------------------------------------------------------
// Array: `array-64`
// ---------------------------------------------------------------------

struct ArrayConfigured {
    kind: BenchmarkKind,
    config: ArrayConfig,
    workload: WorkloadConfig,
}

/// `ssdsim --benchmark ycsb --array 64 --queue-depth 8 --gc-mode
/// staggered --member-threads 1`: each member carries the load of one
/// standalone device. One member thread: on a two-core host shared with
/// other work, a second thread contends with that work for the other core
/// (two sets of ten runs with two threads spread 0.28 and 0.30 on
/// `sim_ops_per_wall_s`, past its 0.25 bound); the report is
/// byte-identical for any thread count.
fn array_unit(seed: u64) -> ArrayConfigured {
    const MEMBERS: usize = 64;
    let mut system = SystemConfig::default_sim();
    system.queue_depth = 8;
    let page_kb = system.ftl.geometry().page_size().as_u64() / 1024;
    let per_device = system.ftl.user_pages() - system.ftl.op_pages() / 2;
    let workload = WorkloadConfig::builder()
        .working_set_pages(per_device * MEMBERS as u64)
        .duration(SimDuration::from_secs(ARRAY_SECS))
        .mean_iops(250.0 * MEMBERS as f64)
        .burst_mean(1_024.0)
        .seed(seed)
        .build();
    let config = ArrayConfig {
        members: MEMBERS,
        chunk_pages: 64 / page_kb,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        sched: ArraySched::Steal,
        member_threads: 1,
        system,
    };
    ArrayConfigured {
        kind: BenchmarkKind::Ycsb,
        config,
        workload,
    }
}

/// Counts (and, when tracing, times) the requests `ArrayScheduler::run`
/// pulls from its workload.
struct GenCounter {
    count: AtomicU64,
    log: Option<Mutex<GenLog>>,
}

struct Counted {
    inner: Box<dyn Workload>,
    counter: Arc<GenCounter>,
}

impl Workload for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let req = match &self.counter.log {
            None => self.inner.next_request(),
            Some(log) => {
                let start = Instant::now();
                let req = self.inner.next_request();
                let end = Instant::now();
                log.lock()
                    .expect("no thread panicked holding the span log")
                    .push(start, end);
                req
            }
        };
        if req.is_some() {
            self.counter.count.fetch_add(1, Ordering::Relaxed);
        }
        req
    }

    fn write_mix(&self) -> WriteMix {
        self.inner.write_mix()
    }

    fn working_set_pages(&self) -> u64 {
        self.inner.working_set_pages()
    }
}

fn run_array(
    mut sched: ArrayScheduler,
    gen: &GenCounter,
    probe: &mut Probe,
    root: SpanId,
    out: &mut Pass,
) {
    let span = probe.open(Kind::ArrayRun, root);
    let report: ArrayReport = sched.run();
    probe.close(span);
    if let Some(log) = &gen.log {
        probe.import(
            Kind::Gen,
            span,
            &log.lock().expect("no thread panicked holding the span log"),
        );
    }
    // The workload's own yield count is the attempted base; the
    // scheduler's completion count (`report.ops`) is checked against it by
    // the conservation law in `check_totals`.
    let issued = gen.count.load(Ordering::Relaxed);
    let t = &mut out.tally;
    t.generated += issued;
    t.attempted += issued;
    // Member failures count sub-requests; on a healthy array they are 0.
    let failed: u64 = report
        .member_reports
        .iter()
        .map(|r| add_device(t, r, &mut out.violations))
        .sum();
    t.failed += failed;
    t.completed += report.ops.saturating_sub(failed);
    t.sim_secs += report.duration_secs;
    check_waf(
        "array",
        t.host_pages,
        t.nand_pages,
        report.waf,
        &mut out.violations,
    );
    for m in sched.members() {
        add_ticks(t, m);
        let c = m.cache().stats();
        t.read_hits += c.read_hits;
        t.read_misses += c.read_misses;
        let f = m.ftl().stats();
        t.sip_eligible += f.sip_eligible_selections;
        t.sip_filtered += f.sip_filtered_selections;
    }
    for p in sched.member_profiles() {
        add_profile(&mut t.profile, &p);
    }
    t.split_requests = report.split_requests;
    for m in &report.member_sched {
        t.straggler_requests += m.straggler_requests;
        t.straggler_time_us += m.straggler_time_us;
        t.member_steps += m.steps;
    }
    let telemetry = sched.sched_telemetry();
    t.steals = telemetry.steals;
    t.epochs = telemetry.epochs;
    t.lat = Latency {
        p50_us: report.latency_p50_us,
        p999_us: report.latency_p999_us,
        samples: report.ops,
        // The array reports no per-kind latency split.
        reader_p999_us: report.latency_p999_us,
        reader_samples: report.ops,
    };
    out.report.push_str(&report.to_json().to_compact());
    out.report.push('\n');
}

// ---------------------------------------------------------------------
// Service: `service-tenants`
// ---------------------------------------------------------------------

/// `ssdsimd` defaults: the writer/reader/mixed roster, SQ depth 64,
/// dispatch window 32, backpressure on, JIT-GC on an aged `default_sim`
/// device.
fn service_config(seed: u64) -> ServiceConfig {
    let tenant = |name: &str, profile, weight, mean_iops, concurrency| TenantSpec {
        name: name.into(),
        weight,
        profile,
        mean_iops,
        concurrency,
    };
    ServiceConfig {
        tenants: vec![
            tenant("writer", TenantProfile::Writer, 1, 1_200.0, 8),
            tenant("reader", TenantProfile::Reader, 4, 400.0, 2),
            tenant("mixed", TenantProfile::Mixed, 2, 400.0, 2),
        ],
        sq_depth: 64,
        dispatch_window: 32,
        tiers: TierThresholds::default(),
        backpressure: true,
        worker_threads: 1,
        fast_forward: true,
        seconds: SERVICE_SECS,
        seed,
        system: SystemConfig::default_sim(),
    }
}

/// Tenant `tenant`'s request stream, generated exactly as the service's
/// in-process closed loop does.
fn tenant_trace(
    cfg: &ServiceConfig,
    tenant: usize,
    probe: &mut Probe,
    root: SpanId,
) -> Vec<IoRequest> {
    const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
    let spec = &cfg.tenants[tenant];
    let wl_cfg = WorkloadConfig::builder()
        .working_set_pages(cfg.pages_per_tenant())
        .duration(SimDuration::from_secs(cfg.seconds))
        .mean_iops(spec.mean_iops)
        .seed(
            cfg.seed
                .wrapping_add((tenant as u64).wrapping_mul(SEED_STRIDE)),
        )
        .build();
    let builder = match spec.profile {
        TenantProfile::Reader => Synthetic::builder().read_fraction(1.0).pages(1, 4),
        TenantProfile::Writer => Synthetic::builder()
            .read_fraction(0.0)
            .buffered_fraction(0.7)
            .pages(8, 32),
        TenantProfile::Mixed => Synthetic::builder()
            .read_fraction(0.5)
            .buffered_fraction(0.7)
            .pages(1, 8),
    };
    let mut workload = builder.build(wl_cfg);
    let mut trace = Vec::new();
    while let Some(req) = probe.leaf(Kind::Gen, root, || workload.next_request()) {
        trace.push(req);
    }
    trace
}

/// One tenant's closed-loop state, as in `run_closed_loop`.
struct TenantLoop {
    trace: Vec<IoRequest>,
    cursor: usize,
    prev_submit: SimTime,
    slots: Vec<Option<SimTime>>,
    next_slot: usize,
    pending: HashMap<u64, usize>,
}

impl TenantLoop {
    fn next_instant(&self) -> Option<SimTime> {
        let req = self.trace.get(self.cursor)?;
        let free = self.slots[self.next_slot]?;
        Some((self.prev_submit + req.gap).max(free))
    }
}

/// `run_closed_loop`'s discrete-event loop.
fn run_service(
    mut service: Service,
    traces: Vec<Vec<IoRequest>>,
    probe: &mut Probe,
    root: SpanId,
    out: &mut Pass,
    pools: &mut Pools,
) {
    let generated: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut loops: Vec<TenantLoop> = traces
        .into_iter()
        .zip(&service.config().tenants)
        .map(|(trace, spec)| TenantLoop {
            trace,
            cursor: 0,
            prev_submit: SimTime::ZERO,
            slots: vec![Some(SimTime::ZERO); spec.concurrency as usize],
            next_slot: 0,
            pending: HashMap::new(),
        })
        .collect();
    let mut submitted = vec![0u64; loops.len()];
    let mut answered = vec![0u64; loops.len()];
    let mut now = SimTime::ZERO;
    let mut last_completion = SimTime::ZERO;
    loop {
        let next_submit = loops.iter().filter_map(TenantLoop::next_instant).min();
        let window_free = probe.leaf(Kind::Window, root, || {
            if service.has_queued() {
                service.next_window_free()
            } else {
                None
            }
        });
        let event = match (next_submit, window_free) {
            (Some(a), Some(b)) => a.min(b),
            (Some(t), None) | (None, Some(t)) => t,
            (None, None) => break,
        };
        now = now.max(event);
        probe.leaf(Kind::Window, root, || service.release_window(now));
        for (tenant, l) in loops.iter_mut().enumerate() {
            while matches!(l.next_instant(), Some(t) if t <= now) {
                let req = l.trace[l.cursor];
                l.cursor += 1;
                l.prev_submit = now;
                let slot = l.next_slot;
                l.next_slot = (slot + 1) % l.slots.len();
                l.slots[slot] = None;
                let outcome = probe.leaf(Kind::Submit, root, || {
                    service.submit(tenant, req.kind, req.lpn.0, req.pages, now)
                });
                l.pending.insert(outcome.id(), slot);
                submitted[tenant] += 1;
            }
        }
        probe.leaf(Kind::Pump, root, || service.pump(now));
        for (tenant, l) in loops.iter_mut().enumerate() {
            let completions =
                probe.leaf(Kind::Completions, root, || service.take_completions(tenant));
            for c in completions {
                let slot = l
                    .pending
                    .remove(&c.id)
                    .expect("completion matches an outstanding request");
                l.slots[slot] = Some(c.completed_at);
                last_completion = last_completion.max(c.completed_at);
                answered[tenant] += 1;
                if c.status == CompletionStatus::Done {
                    pools.record(c.latency(), false);
                }
            }
        }
    }
    let end = last_completion.max(SimTime::from_secs(service.config().seconds));
    let report: ServiceReport = probe.leaf(Kind::Finalize, root, || service.finalize(end));

    let t = &mut out.tally;
    t.generated += generated;
    // Device-side failures complete with an error status; count them as
    // failed rather than completed.
    let device_failed = add_device(t, &report.device, &mut out.violations);
    t.failed += device_failed;
    for (i, tr) in report.tenants.iter().enumerate() {
        if tr.submitted != tr.completed + tr.shed {
            out.violations.push(format!(
                "{}: submitted {} != completed {} + shed {}",
                tr.name, tr.submitted, tr.completed, tr.shed
            ));
        }
        if tr.submitted != submitted[i] {
            out.violations.push(format!(
                "{}: service counted {} submissions, the benchmark made {}",
                tr.name, tr.submitted, submitted[i]
            ));
        }
        t.attempted += tr.submitted;
        t.completed += tr.completed;
        t.refused += tr.shed;
        t.shed += tr.shed;
        t.deferred += tr.deferred;
        // A submission that never got a completion is lost work.
        t.failed += submitted[i].saturating_sub(answered[i]);
    }
    t.completed -= device_failed.min(t.completed);
    t.sim_secs += report.duration_us as f64 * 1e-6;
    t.service_us += report.duration_us;
    t.red_black_us += report.tier.residency_us[2] + report.tier.residency_us[3];
    let period = service.config().system.flusher_period.as_micros().max(1);
    t.ticks_total += end.as_micros() / period;
    t.ticks_skipped += service.ticks_skipped();
    t.hit_ratio = report.device.cache_hit_ratio;
    t.sip_fraction = report.device.sip_filtered_fraction;
    pools.reader = report
        .tenant("reader")
        .map(|r| (r.latency_p999_us.unwrap_or(0), r.completed));
    out.report.push_str(&report.to_json().to_compact());
    out.report.push('\n');
}

fn check_totals(out: &mut Pass) {
    let t = &out.tally;
    if t.attempted != t.completed + t.failed + t.refused {
        out.violations.push(format!(
            "attempted {} != completed {} + failed {} + refused {}",
            t.attempted, t.completed, t.failed, t.refused
        ));
    }
    if t.attempted == 0 {
        out.violations.push("no request was attempted".into());
    }
    if t.nand_pages < t.host_pages {
        out.violations.push(format!(
            "{} NAND pages programmed < {} host pages written",
            t.nand_pages, t.host_pages
        ));
    }
}

/// The units' reports from the program's own run loops
/// (`SsdSystem::run`, `ArrayScheduler::run`, `run_closed_loop`),
/// concatenated like [`Pass::report`], so the benchmark's re-stated loops
/// can be checked against them.
pub fn reference_report(scenario: Scenario, seed: u64) -> String {
    let mut reports = String::new();
    for unit in scenario.units(seed) {
        let text = match unit {
            Unit::Single(u) => {
                let workload = u.kind.build(u.workload);
                let policy = JitGc::from_system_config(&u.system);
                SsdSystem::new(u.system, Box::new(policy), workload)
                    .run()
                    .to_json()
            }
            Unit::Array(a) => a
                .config
                .build(
                    |system| Box::new(JitGc::from_system_config(system)),
                    a.kind.build(a.workload),
                )
                .run()
                .to_json(),
            Unit::Service(cfg) => {
                let policy = JitGc::from_system_config(&cfg.system);
                jitgc_service::run_closed_loop(&cfg, Box::new(policy)).to_json()
            }
        };
        reports.push_str(&text.to_compact());
        reports.push('\n');
    }
    reports
}
