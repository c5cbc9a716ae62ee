//! Equivalence properties of the quiescence fast-forward (DESIGN.md §15).
//!
//! The fast-forward is a pure wall-clock optimization: a run with it on
//! must produce a report **byte-identical** (as serialized JSON) to the
//! same run with it off, at every driver level — the single-device
//! engine, the array scheduler (its reference loop and the work-stealing
//! driver at several worker-thread counts), and the multi-tenant service. These tests pin that contract on
//! seeded idle-heavy workloads; debug builds additionally replay every
//! skipped span through the per-tick loop inside the engine itself (the
//! oracle in `fast_forward_checked`), so each skip below is doubly
//! verified.

use jitgc_array::{ArrayConfig, ArraySched, GcMode, Redundancy};
use jitgc_bench::PolicyKind;
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_service::{run_closed_loop_counting, ServiceConfig, TenantProfile, TenantSpec};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, Workload, WorkloadConfig};

/// An idle-heavy closed-loop workload: ~1 request/s arrival with ~600 s
/// mean bursts leaves long zero-traffic stretches between bursts — far
/// beyond the ~(N_wb + CDH window) tick warm-up quiescence needs.
fn bursty_idle_workload(
    system: &SystemConfig,
    benchmark: BenchmarkKind,
    columns: u64,
    secs: u64,
    seed: u64,
) -> Box<dyn Workload> {
    let per_member = system.ftl.user_pages() - system.ftl.op_pages() / 2;
    benchmark.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * columns)
            .duration(SimDuration::from_secs(secs))
            .mean_iops(1.0 * columns as f64)
            .burst_mean(600.0 * columns as f64)
            .seed(seed)
            .build(),
    )
}

/// Runs one single-device scenario and returns the serialized report
/// plus the skip counters.
fn single_run(benchmark: BenchmarkKind, fast_forward: bool, seed: u64) -> (String, u64, u64) {
    let system = SystemConfig::small_for_tests();
    let workload = bursty_idle_workload(&system, benchmark, 1, 1_500, seed);
    let policy = PolicyKind::Jit.build(&system);
    let mut sim = SsdSystem::new(system, policy, workload);
    sim.set_fast_forward(fast_forward);
    let report = sim.run();
    (
        report.to_json().to_pretty(),
        sim.ticks_skipped(),
        sim.ff_spans(),
    )
}

/// The tentpole acceptance criterion, single-device: every benchmark
/// flavor reports byte-identically with the fast-forward on and off, and
/// the idle-heavy sizing actually exercises the skip path.
#[test]
fn single_device_reports_are_identical_ff_on_and_off_across_workloads() {
    let mut total_skipped = 0;
    for (i, &benchmark) in BenchmarkKind::all().iter().enumerate() {
        let seed = 7 + i as u64;
        let (on, skipped, spans) = single_run(benchmark, true, seed);
        let (off, skipped_off, _) = single_run(benchmark, false, seed);
        assert_eq!(
            on, off,
            "{benchmark:?}: report diverged between fast-forward on and off"
        );
        assert_eq!(skipped_off, 0, "{benchmark:?}: off-run must never skip");
        assert!(
            spans <= skipped,
            "{benchmark:?}: spans ({spans}) cannot exceed skipped ticks ({skipped})"
        );
        total_skipped += skipped;
    }
    assert!(
        total_skipped > 0,
        "the idle-heavy sizing never engaged the fast-forward — the \
         identity checks above proved nothing"
    );
}

/// Runs one array scenario — the work-stealing driver at `threads`
/// member threads, or the reference loop for `None` — and returns the
/// serialized report plus the aggregate skip counter.
fn array_run(threads: Option<usize>, fast_forward: bool) -> (String, u64) {
    let system = SystemConfig::small_for_tests();
    let members = 4;
    let config = ArrayConfig {
        members,
        chunk_pages: 16,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        sched: ArraySched::Steal,
        member_threads: threads.unwrap_or(1),
        system: system.clone(),
    };
    let workload = bursty_idle_workload(&system, BenchmarkKind::Ycsb, members as u64, 1_500, 11);
    let mut sim = config.build(|cfg| PolicyKind::Jit.build(cfg), workload);
    sim.set_fast_forward(fast_forward);
    let report = match threads {
        Some(_) => sim.run(),
        None => sim.run_reference(),
    };
    (report.to_json().to_pretty(), sim.ticks_skipped())
}

/// The array acceptance criterion: the reference loop with the
/// fast-forward off is the baseline; the reference loop with it on and
/// the steal driver at 1, 2 and 4 worker threads with it on must all
/// match it byte for byte (the fast-forward must not break the
/// driver/thread-count identities either).
#[test]
fn array_reports_are_identical_ff_on_and_off_across_drivers() {
    let (baseline, skipped_off) = array_run(None, false);
    assert_eq!(skipped_off, 0, "off-run must never skip");
    let mut engaged = 0;
    for threads in [None, Some(1), Some(2), Some(4)] {
        let (on, skipped) = array_run(threads, true);
        assert_eq!(
            on, baseline,
            "{threads:?} thread(s) (None = reference): fast-forward \
             changed the array report"
        );
        engaged += skipped;
    }
    assert!(
        engaged > 0,
        "no array run engaged the fast-forward — the identities proved nothing"
    );
}

/// A tenant roster whose request streams leave long idle stretches:
/// read-only tenants (nothing ever dirties the cache) trickling a few
/// requests across a long run.
fn idle_service_cfg(fast_forward: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.tenants = (0..2)
        .map(|i| TenantSpec {
            name: format!("scanner-{i}"),
            weight: 1 + i,
            profile: TenantProfile::Reader,
            mean_iops: 0.004,
            concurrency: 1,
        })
        .collect();
    cfg.seconds = 2_000;
    cfg.system.prefill = false;
    cfg.fast_forward = fast_forward;
    cfg
}

/// The service acceptance criterion: the deterministic service report is
/// byte-identical with the engine fast-forward on and off, and an
/// idle-heavy roster actually reaches quiescence behind the queue-pair
/// frontend.
#[test]
fn service_reports_are_identical_ff_on_and_off() {
    let policy = |cfg: &ServiceConfig| PolicyKind::Jit.build(&cfg.system);
    let on_cfg = idle_service_cfg(true);
    let (on, skipped_on, spans_on) = run_closed_loop_counting(&on_cfg, policy(&on_cfg));
    let off_cfg = idle_service_cfg(false);
    let (off, skipped_off, _) = run_closed_loop_counting(&off_cfg, policy(&off_cfg));
    assert_eq!(
        on.to_json().to_pretty(),
        off.to_json().to_pretty(),
        "fast-forward changed the service report"
    );
    assert_eq!(skipped_off, 0, "off-run must never skip");
    assert!(
        skipped_on > 0 && spans_on > 0,
        "the idle roster never engaged the fast-forward \
         ({skipped_on} ticks in {spans_on} spans)"
    );
}

/// The busy default mix must also be invariant (even though it rarely
/// goes quiescent): flipping the config switch on a writer-heavy roster
/// is a no-op on the report.
#[test]
fn service_default_mix_report_ignores_the_switch() {
    let mk = |fast_forward: bool| {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.seconds = 10;
        cfg.system.prefill = false;
        cfg.fast_forward = fast_forward;
        let policy = PolicyKind::Jit.build(&cfg.system);
        run_closed_loop_counting(&cfg, policy)
            .0
            .to_json()
            .to_pretty()
    };
    assert_eq!(mk(true), mk(false));
}

/// The satellite regression: the interval log stays bounded on long runs
/// (it used to grow one entry per tick forever), through the facade and
/// with the fast-forward in play.
#[test]
fn interval_log_stays_bounded_through_the_facade() {
    let system = SystemConfig::small_for_tests();
    let nwb = system.nwb();
    let workload = bursty_idle_workload(&system, BenchmarkKind::Ycsb, 1, 2_000, 13);
    let policy = PolicyKind::Jit.build(&system);
    let mut sim = SsdSystem::new(system, policy, workload);
    let _ = sim.run();
    // One live horizon of entries plus the slack of the tick that scores
    // before compacting.
    let bound = 2 * nwb + 2;
    assert!(
        sim.interval_log_materialized_len() <= bound,
        "interval log kept {} materialized entries (bound {bound})",
        sim.interval_log_materialized_len()
    );
}
