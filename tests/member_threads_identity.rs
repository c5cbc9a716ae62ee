//! Parallel member stepping is an implementation detail: whatever worker
//! count the work-stealing driver steps the members with, the array
//! report must be **byte-identical** (as serialized JSON) to the
//! single-threaded reference loop's (`ArrayScheduler::run_reference`).
//! That holds across striped and mirrored layouts, with wear-dependent
//! fault injection active (the fault timeline is part of the identity,
//! so a reordered RNG draw anywhere would show up here), and at rack
//! scale (64 members), where stealing actually moves work between
//! shards.

use jitgc_repro::array::{ArrayConfig, ArraySched, GcMode, Redundancy};
use jitgc_repro::core::policy::{GcPolicy, JitGc};
use jitgc_repro::core::system::SystemConfig;
use jitgc_repro::nand::FaultConfig;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, Workload, WorkloadConfig};

fn jit(config: &SystemConfig) -> Box<dyn GcPolicy> {
    Box::new(JitGc::from_system_config(config))
}

/// The standard sizing, scaled by the column count so each member carries
/// a standalone device's load.
fn workload_for(
    config: &SystemConfig,
    columns: u64,
    seed: u64,
    secs: u64,
    iops: f64,
) -> Box<dyn Workload> {
    let per_member = config.ftl.user_pages() - config.ftl.op_pages() / 2;
    BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * columns)
            .duration(SimDuration::from_secs(secs))
            .mean_iops(iops * columns as f64)
            .burst_mean(128.0)
            .seed(seed)
            .build(),
    )
}

/// Runs one array and serializes its report: the work-stealing driver
/// at `threads` member threads, or the reference loop for `None`.
fn array_json(
    system: &SystemConfig,
    members: usize,
    redundancy: Redundancy,
    threads: Option<usize>,
    seed: u64,
    (secs, iops): (u64, f64),
) -> String {
    let columns = match redundancy {
        Redundancy::None => members as u64,
        Redundancy::Mirror => members as u64 / 2,
    };
    let mut sim = ArrayConfig {
        members,
        chunk_pages: 16,
        redundancy,
        gc_mode: GcMode::Staggered,
        sched: ArraySched::Steal,
        member_threads: threads.unwrap_or(1),
        system: system.clone(),
    }
    .build(jit, workload_for(system, columns, seed, secs, iops));
    let report = match threads {
        Some(_) => sim.run(),
        None => sim.run_reference(),
    };
    report.to_json().to_pretty()
}

/// Asserts the steal driver matches the reference loop at every thread
/// count in `threads`.
fn assert_identical(
    label: &str,
    system: &SystemConfig,
    members: usize,
    redundancy: Redundancy,
    threads: &[usize],
    seed: u64,
    load: (u64, f64),
) {
    let reference = array_json(system, members, redundancy, None, seed, load);
    for &t in threads {
        assert_eq!(
            reference,
            array_json(system, members, redundancy, Some(t), seed, load),
            "{label} report diverged from the reference at {t} member threads"
        );
    }
}

/// Striped (no redundancy): members only interact through routing-free
/// address splitting, so every quantum runs fully parallel.
#[test]
fn striped_array_is_identical_for_any_worker_count() {
    let system = SystemConfig::small_for_tests();
    assert_identical(
        "striped",
        &system,
        4,
        Redundancy::None,
        &[1, 2, 4],
        42,
        (15, 400.0),
    );
}

/// Mirrored: replica-routed reads are cross-member decisions, so quanta
/// get truncated at serial points — the report must still match exactly.
#[test]
fn mirrored_array_is_identical_for_any_worker_count() {
    let system = SystemConfig::small_for_tests();
    assert_identical(
        "mirrored",
        &system,
        4,
        Redundancy::Mirror,
        &[1, 2, 4],
        7,
        (15, 400.0),
    );
}

/// A `small_for_tests` system with the wear-fault injector armed.
fn faulty_system() -> SystemConfig {
    let mut system = SystemConfig::small_for_tests();
    system.ftl = system
        .ftl
        .to_builder()
        .endurance_limit(60)
        .fault(FaultConfig {
            seed: 9,
            program_rate: 0.05,
            erase_rate: 0.05,
            read_rate: 0.02,
            wear_scale: 40,
        })
        .build();
    system
}

/// With fault injection firing, every RNG draw's position in the
/// per-member stream is observable through the failure timeline: parallel
/// stepping must reproduce it draw for draw.
#[test]
fn faulty_array_is_identical_for_any_worker_count() {
    let system = faulty_system();
    for redundancy in [Redundancy::None, Redundancy::Mirror] {
        assert_identical(
            &format!("faulty {redundancy:?}"),
            &system,
            4,
            redundancy,
            &[1, 2, 4],
            21,
            (15, 400.0),
        );
    }
}

/// Rack scale: 64 mirrored members with fault injection and a deep
/// queue, so quanta are long, mirrored-read serial points are frequent,
/// and the steal driver's shards actually exchange work. Reports must be
/// byte-identical to the reference loop at {1, 4, 8} threads — the
/// acceptance criterion for the work-stealing scheduler.
#[test]
fn rack_scale_array_is_identical_for_any_worker_count_and_driver() {
    let mut system = faulty_system();
    system.queue_depth = 8;
    assert_identical(
        "64-member",
        &system,
        64,
        Redundancy::Mirror,
        &[1, 4, 8],
        5,
        (3, 150.0),
    );
}
