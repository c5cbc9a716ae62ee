//! `jitgc-perf-ledger` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf-ledger/Cargo.toml -- \
//!     --workload <paper-mix|idle-diurnal|array-64|service-tenants> \
//!     --seed N [--seconds S] [--trace 0|1] [--held-out-seed N]
//! ```
//!
//! One invocation runs one workload for `--seconds` host seconds as
//! repeated *passes* (set-up plus run of every unit, same seed each time)
//! and reports, for host times, the fast decile over the passes (see
//! `fast_decile`). `--trace 0` reports the
//! end-to-end metrics from untraced passes, each followed by timed set-ups.
//! `--trace 1` first runs the program's own run loops once and checks that
//! the benchmark's re-stated loops give byte-identical reports, then
//! spends half the remaining budget on untraced passes and half on traced
//! ones (spans around every public call, engine phase profiling on),
//! checks that both give byte-identical simulated reports, and reports the
//! per-layer metrics. Every pass is checked (request conservation, NAND ≥
//! host pages, WAF ≥ 1, identical reports across passes). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A later `--seed` overrides an earlier one, so a default seed
//! can lead the command line.
//!
//! See `README.md` beside this file for every metric's unit, layer and
//! target.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::{Kind, Probe};
use workloads::{Pass, Scenario, Tally};

/// After each untraced pass of `--trace 0`, set-up alone repeats for at
/// least `SETUP_SHARE` of that pass's run time (at least once), after one
/// dropped warm-up set-up that pages in the memory the run just freed;
/// `setup_s` is the fast decile of the kept set-ups. Spread over the whole run
/// like the passes, the samples meet the same slow and fast phases of a
/// shared host as the run rates do.
const SETUP_SHARE: f64 = 0.125;

/// End-to-end metrics: `(name, unit)`. Unit `s` is host seconds; `sim-`
/// units are simulated time.
const END_TO_END: [(&str, &str); 9] = [
    ("sim_ops_per_wall_s", "ops/s"),
    ("nand_pages_per_wall_s", "pages/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_iops", "ops/sim-s"),
    ("waf", "ratio"),
    ("sim_lat_p50_us", "sim-us"),
    ("sim_lat_p999_us", "sim-us"),
    ("reader_p999_us", "sim-us"),
];

/// Per-layer metrics: `(name, unit)`.
const PER_LAYER: [(&str, &str); 40] = [
    ("workload.gen_s", "s"),
    ("workload.requests", "count"),
    ("pagecache.flush_s", "s"),
    ("pagecache.hit_ratio", "ratio"),
    ("core.predictor.poll_s", "s"),
    ("core.predictor.accuracy_pct", "%"),
    ("core.engine.tick_s", "s"),
    ("core.engine.ticks_processed", "count"),
    ("core.engine.ticks_skipped", "count"),
    ("core.engine.ff_skip_share", "ratio"),
    ("core.engine.step_s", "s"),
    ("core.engine.untracked_s", "s"),
    ("core.policy.bgc_s", "s"),
    ("core.policy.bgc_blocks", "count"),
    ("core.policy.bgc_s_per_block", "s/block"),
    ("ftl.request_s", "s"),
    ("ftl.gc_copy_s", "s"),
    ("ftl.gc_pages_migrated", "count"),
    ("ftl.fgc_stalls", "count"),
    ("ftl.throttled_requests", "count"),
    ("ftl.sip_filtered_fraction", "ratio"),
    ("nand.pages_programmed", "count"),
    ("nand.erases", "count"),
    ("array.run_s", "s"),
    ("array.member_step_s", "s"),
    ("array.epochs", "count"),
    ("array.steals", "count"),
    ("array.steal_share", "ratio"),
    ("array.split_requests", "count"),
    ("array.straggler_requests", "count"),
    ("array.straggler_time_us", "sim-us"),
    ("service.submit_s", "s"),
    ("service.pump_s", "s"),
    ("service.completions_s", "s"),
    ("service.shed", "count"),
    ("service.deferred", "count"),
    ("service.red_black_share", "ratio"),
    ("failed_op_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unclaimed_s", "s"),
];

struct Args {
    scenario: Scenario,
    seed: u64,
    seconds: u64,
    trace: bool,
    held_out_seed: Option<u64>,
}

fn fail(message: &str) -> ! {
    eprintln!("jitgc-perf-ledger: {message}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut held_out_seed = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail(&format!("{name} needs a whole number")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = it.next().unwrap_or_else(|| fail("--workload needs a name"));
                workload = Some(Scenario::parse(&name).unwrap_or_else(|| {
                    let names: Vec<_> = Scenario::ALL.iter().map(|s| s.name()).collect();
                    fail(&format!("unknown workload `{name}` ({})", names.join("|")))
                }));
            }
            "--seed" => seed = Some(value("--seed")),
            "--seconds" => seconds = value("--seconds"),
            "--trace" => {
                trace = match value("--trace") {
                    0 => false,
                    1 => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--held-out-seed" => held_out_seed = Some(value("--held-out-seed")),
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    if seconds == 0 {
        fail("--seconds must be at least 1");
    }
    Args {
        scenario: workload.unwrap_or_else(|| fail("--workload is required")),
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds,
        trace,
        held_out_seed,
    }
}

/// Passes repeated until `budget` host time has gone by (at least one),
/// each followed by a batch of timed set-ups when `setups` is given.
fn measure(
    scenario: Scenario,
    seed: u64,
    budget: Duration,
    traced: bool,
    mut setups: Option<&mut Vec<f64>>,
) -> Vec<(Pass, Probe)> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let mut probe = if traced { Probe::on() } else { Probe::off() };
        let pass = workloads::pass(scenario, seed, &mut probe);
        if let Some(setups) = setups.as_deref_mut() {
            workloads::setup_only(scenario, seed);
            let batch = Instant::now();
            loop {
                setups.push(workloads::setup_only(scenario, seed));
                if batch.elapsed().as_secs_f64() >= SETUP_SHARE * pass.run_s {
                    break;
                }
            }
        }
        passes.push((pass, probe));
    }
    passes
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 10th percentile of host times (linear interpolation between
/// order statistics). Other work on a shared host only ever adds time to a
/// pass, in slow phases of seconds to minutes; the fast tail of a run's
/// samples tracks the program's own speed, and across runs it spread less
/// than the median did (`LEDGER.md`, section 5).
fn fast_decile(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "fast decile of no samples");
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * 0.1;
    let (i, f) = (k.floor() as usize, k.fract());
    match v.get(i + 1) {
        Some(next) => v[i] * (1.0 - f) + next * f,
        None => v[i],
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// FNV-1a over the reports: equal digests ⇔ (with overwhelming
/// probability) identical simulated results.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// End-to-end metrics from the first pass's counts, the run time and the
/// set-up time.
fn end_to_end(t: &Tally, run_s: f64, setup_s: f64) -> Metrics {
    let mut m = BTreeMap::new();
    m.insert("sim_ops_per_wall_s", ratio(t.completed as f64, run_s));
    m.insert("nand_pages_per_wall_s", ratio(t.nand_pages as f64, run_s));
    m.insert("setup_s", Some(setup_s));
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("sim_iops", ratio(t.completed as f64, t.sim_secs));
    m.insert("waf", ratio(t.nand_pages as f64, t.host_pages as f64));
    m.insert("sim_lat_p50_us", Some(t.lat.p50_us as f64));
    m.insert("sim_lat_p999_us", Some(t.lat.p999_us as f64));
    m.insert("reader_p999_us", Some(t.lat.reader_p999_us as f64));
    m
}

/// The deterministic per-layer counters of a pass (`None` where the
/// workload has no such layer).
fn layer_counters(s: Scenario, t: &Tally) -> Metrics {
    let array = s == Scenario::Array64;
    let service = s == Scenario::ServiceTenants;
    let on = |cond: bool, v: u64| cond.then_some(v as f64);
    let mut m = BTreeMap::new();
    m.insert("workload.requests", Some(t.generated as f64));
    m.insert(
        "pagecache.hit_ratio",
        ratio(t.read_hits as f64, (t.read_hits + t.read_misses) as f64).or(t.hit_ratio),
    );
    m.insert(
        "core.predictor.accuracy_pct",
        ratio(t.accuracy_sum, t.accuracy_n as f64),
    );
    m.insert(
        "core.engine.ticks_processed",
        Some(t.ticks_total.saturating_sub(t.ticks_skipped) as f64),
    );
    m.insert("core.engine.ticks_skipped", Some(t.ticks_skipped as f64));
    m.insert(
        "core.engine.ff_skip_share",
        ratio(t.ticks_skipped as f64, t.ticks_total as f64),
    );
    m.insert("core.policy.bgc_blocks", Some(t.bgc_blocks as f64));
    m.insert("ftl.gc_pages_migrated", Some(t.gc_pages_migrated as f64));
    m.insert("ftl.fgc_stalls", Some(t.fgc_stalls as f64));
    m.insert("ftl.throttled_requests", Some(t.throttled as f64));
    m.insert(
        "ftl.sip_filtered_fraction",
        ratio(t.sip_filtered as f64, t.sip_eligible as f64).or(t.sip_fraction),
    );
    m.insert("nand.pages_programmed", Some(t.nand_pages as f64));
    m.insert("nand.erases", Some(t.nand_erases as f64));
    m.insert("array.epochs", on(array, t.epochs));
    m.insert("array.steals", on(array, t.steals));
    m.insert(
        "array.steal_share",
        ratio(t.steals as f64, t.member_steps as f64).filter(|_| array),
    );
    m.insert("array.split_requests", on(array, t.split_requests));
    m.insert("array.straggler_requests", on(array, t.straggler_requests));
    m.insert("array.straggler_time_us", on(array, t.straggler_time_us));
    m.insert("service.shed", on(service, t.shed));
    m.insert("service.deferred", on(service, t.deferred));
    m.insert(
        "service.red_black_share",
        ratio(t.red_black_us as f64, t.service_us as f64).filter(|_| service),
    );
    m.insert(
        "failed_op_share",
        ratio((t.failed + t.refused) as f64, t.attempted as f64),
    );
    m
}

/// Named metric values; `None` where a workload has no such layer.
type Metrics = BTreeMap<&'static str, Option<f64>>;

/// Host-time per-layer metrics of one traced pass, plus its self-time
/// partition of the run phase as `(layer, seconds)`.
fn layer_times(s: Scenario, pass: &Pass, probe: &Probe) -> (Metrics, Vec<(&'static str, f64)>) {
    let tr = probe.tracer().expect("traced pass");
    let p = &pass.tally.profile;
    let secs = |d: Duration| d.as_secs_f64();
    let (flush, predictor, bgc) = (secs(p.flush), secs(p.predictor), secs(p.bgc));
    let (request, reporting) = (secs(p.request_execution), secs(p.reporting));
    let accounted = secs(p.accounted());
    let gen = tr.secs(Kind::Gen);
    let run = tr.secs(Kind::Run);
    let mut m = BTreeMap::new();
    let mut partition = Vec::new();
    let engine = s != Scenario::ServiceTenants;
    m.insert("workload.gen_s", Some(gen));
    if engine {
        m.insert("pagecache.flush_s", Some(flush));
        m.insert("core.predictor.poll_s", Some(predictor));
        m.insert("core.engine.tick_s", Some(secs(p.tick)));
        m.insert("core.policy.bgc_s", Some(bgc));
        m.insert(
            "core.policy.bgc_s_per_block",
            ratio(bgc, pass.tally.bgc_blocks as f64),
        );
        m.insert("ftl.request_s", Some(request));
        m.insert("ftl.gc_copy_s", Some(secs(p.gc_copy)));
    }
    let claimed = match s {
        Scenario::PaperMix | Scenario::IdleDiurnal => {
            let step = tr.secs(Kind::Step);
            let finalize = tr.secs(Kind::Finalize);
            let untracked = step + finalize - accounted;
            m.insert("core.engine.step_s", Some(step));
            m.insert("core.engine.untracked_s", Some(untracked));
            partition.extend([
                ("workload", gen),
                ("pagecache", flush),
                ("core.predictor", predictor),
                ("core.policy", bgc),
                ("ftl", request),
                ("core.engine", untracked + reporting),
            ]);
            gen + step + finalize
        }
        Scenario::Array64 => {
            let array_run = tr.secs(Kind::ArrayRun);
            let untracked = array_run - gen - accounted;
            m.insert("core.engine.untracked_s", Some(untracked));
            m.insert("array.run_s", Some(array_run));
            m.insert("array.member_step_s", Some(accounted));
            partition.extend([
                ("workload", gen),
                ("pagecache", flush),
                ("core.predictor", predictor),
                ("core.policy", bgc),
                ("ftl", request),
                ("core.engine", reporting),
                ("array+core.engine", untracked),
            ]);
            array_run
        }
        Scenario::ServiceTenants => {
            let submit = tr.secs(Kind::Submit);
            let pump = tr.secs(Kind::Pump);
            let completions = tr.secs(Kind::Completions);
            let window = tr.secs(Kind::Window);
            let finalize = tr.secs(Kind::Finalize);
            m.insert("service.submit_s", Some(submit));
            m.insert("service.pump_s", Some(pump));
            m.insert("service.completions_s", Some(completions));
            partition.push((
                "service (incl. core.engine)",
                submit + pump + completions + window + finalize,
            ));
            submit + pump + completions + window + finalize
        }
    };
    let unclaimed = run - claimed;
    m.insert("trace.unclaimed_s", Some(unclaimed));
    partition.push(("unclaimed", unclaimed));
    (m, partition)
}

fn fmt(v: f64) -> String {
    // Shortest round-trip form: every digit as measured.
    let v = if v.is_finite() { v } else { 0.0 };
    format!("{v}")
}

fn main() {
    let args = parse_args();
    let s = args.scenario;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    let (reference, untraced, traced) = if args.trace {
        let reference = workloads::reference_report(s, args.seed);
        let half = budget.saturating_sub(start.elapsed()) / 2;
        (
            Some(reference),
            measure(s, args.seed, half, false, None),
            measure(s, args.seed, half, true, None),
        )
    } else {
        let passes = measure(s, args.seed, budget, false, Some(&mut setups));
        (None, passes, Vec::new())
    };

    // Checks: every pass clean, every report identical to the first, and
    // the first identical to the program's own run loops.
    let first = &untraced[0].0;
    let mut violations: Vec<String> = Vec::new();
    if let Some(reference) = &reference {
        if first.report.lines().count() != reference.lines().count() {
            violations.push("unit count differs from the program's own run loops".into());
        }
        for (i, (ours, theirs)) in first.report.lines().zip(reference.lines()).enumerate() {
            if ours != theirs {
                violations.push(format!(
                    "unit {i}: report differs from the program's own run loop"
                ));
            }
        }
    }
    for (i, (pass, probe)) in untraced.iter().chain(&traced).enumerate() {
        violations.extend(pass.violations.iter().cloned());
        if pass.report != first.report {
            violations.push(if probe.is_on() {
                format!("traced pass {i}: simulated report differs from the untraced run")
            } else {
                format!("pass {i}: simulated report differs from pass 0 (same seed)")
            });
        }
    }
    violations.sort();
    violations.dedup();

    // Every pass did the same simulated work, so a rate over the fast-decile
    // run time is the fast-decile rate.
    let run_untraced = fast_decile(untraced.iter().map(|(p, _)| p.run_s).collect());
    let t = &first.tally;

    println!(
        "perf-ledger {} seed={} (held-out {}) seconds={} trace={}",
        s.name(),
        args.seed,
        args.held_out_seed
            .map_or_else(|| "-".to_owned(), |h| h.to_string()),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "passes: {} untraced, {} traced; run_s fast decile {:.4} (host)",
        untraced.len(),
        traced.len(),
        run_untraced
    );
    let per_pass: Vec<String> = untraced
        .iter()
        .chain(&traced)
        .map(|(p, _)| format!("{:.3}", p.run_s))
        .collect();
    println!("run_s per pass (host): {}", per_pass.join(" "));
    println!("report_digest {:016x}", digest(&first.report));
    if let Some(reference) = &reference {
        println!(
            "reference_digest {:016x} (program's own run loops)",
            digest(reference)
        );
    }
    println!(
        "requests: attempted {} completed {} failed {} refused {}; latency samples {} (reader {})",
        t.attempted, t.completed, t.failed, t.refused, t.lat.samples, t.lat.reader_samples
    );

    let mut metrics: Vec<(&str, &str, Option<f64>)> = Vec::new();
    if args.trace {
        let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut partitions: Vec<Vec<(&str, f64)>> = Vec::new();
        for (pass, probe) in &traced {
            let (times, partition) = layer_times(s, pass, probe);
            for (k, v) in times {
                if let Some(v) = v {
                    per_pass.entry(k).or_default().push(v);
                }
            }
            partitions.push(partition);
        }
        let mut layer = layer_counters(s, t);
        for (k, v) in per_pass {
            layer.insert(k, Some(median(v)));
        }
        let run_traced = fast_decile(traced.iter().map(|(p, _)| p.run_s).collect());
        layer.insert(
            "trace.overhead_pct",
            Some((run_traced / run_untraced - 1.0) * 100.0),
        );
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layer.get(name).copied().flatten()));
        }
        // The self-time partition of the median traced pass.
        let mut order: Vec<usize> = (0..traced.len()).collect();
        order.sort_by(|&a, &b| traced[a].0.run_s.total_cmp(&traced[b].0.run_s));
        let mid = order[order.len() / 2];
        let total: f64 = partitions[mid].iter().map(|(_, v)| v).sum();
        println!("self time of the median traced pass (host s, share of its run phase):");
        for (layer, v) in &partitions[mid] {
            println!("  {layer:<20} {v:>10.4} {:>6.1}%", 100.0 * v / total);
        }
        let (_, last_probe) = traced.last().expect("at least one traced pass");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.tsv", s.name()));
        if let Some(tracer) = last_probe.tracer() {
            match tracer.write(&path) {
                Ok(()) => println!("spans of the last traced pass: {}", path.display()),
                Err(e) => violations.push(format!("cannot write {}: {e}", path.display())),
            }
        }
    } else {
        println!("set-ups timed: {}", setups.len());
        let e2e = end_to_end(t, run_untraced, fast_decile(setups));
        for (name, unit) in END_TO_END {
            metrics.push((name, unit, e2e.get(name).copied().flatten()));
        }
    }
    for (name, unit, v) in &metrics {
        match v {
            Some(v) => println!("  {name:<30} {:>18} {unit}", fmt(*v)),
            None => println!("  {name:<30} {:>18} {unit}", "n/a"),
        }
    }
    for v in &violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let correct = violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt(v.unwrap_or(0.0))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
