//! `nocsim` — a standalone command-line NoC simulator (BookSim-style).
//!
//! ```sh
//! nocsim --org pra --pattern uniform --rate 0.03 --cycles 20000
//! nocsim --org mesh --pattern hotspot:27 --rate 0.01 --radix 4
//! nocsim --org smart --trace trace.json
//! ```
//!
//! Run with `--help` for the full option list.

use bench::{AnyNetwork, Organization};
use niobs::MetricsRegistry;
use noc::config::{NocConfig, NocConfigBuilder};
use noc::network::Network;
use noc::trace::{replay, Trace};
use noc::traffic::{InjectionProcess, Pattern, TrafficGen};
use noc::types::MessageClass;
use runner::{
    injection_from_key, injection_key, pattern_from_key, INJECTION_KEYS, ORG_KEYS, PATTERN_KEYS,
};
use workloads::{WorkloadKind, WORKLOAD_KEYS};

#[derive(Debug)]
struct Options {
    org: Organization,
    pattern: Pattern,
    pattern_set: bool,
    injection: InjectionProcess,
    injection_set: bool,
    workload: Option<WorkloadKind>,
    class_priority: Option<[u8; 3]>,
    rate: f64,
    response_fraction: f64,
    warmup: u64,
    cycles: u64,
    seed: u64,
    radix: u16,
    vc_depth: u8,
    hpc: u8,
    fault_ppb: u32,
    fault_seed: u64,
    retry_budget: Option<u8>,
    ack_timeout: Option<u64>,
    backoff_base: Option<u64>,
    include_warmup: bool,
    trace: Option<String>,
    record: Option<String>,
    trace_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            org: Organization::Mesh,
            pattern: Pattern::UniformRandom,
            pattern_set: false,
            injection: InjectionProcess::Bernoulli,
            injection_set: false,
            workload: None,
            class_priority: None,
            rate: 0.02,
            response_fraction: 0.5,
            warmup: 2_000,
            cycles: 20_000,
            seed: 1,
            radix: 8,
            vc_depth: 5,
            hpc: 2,
            fault_ppb: 0,
            fault_seed: 0,
            retry_budget: None,
            ack_timeout: None,
            backoff_base: None,
            include_warmup: false,
            trace: None,
            record: None,
            trace_out: None,
        }
    }
}

const HELP: &str = "\
nocsim — cycle-accurate NoC simulation (near-ideal-noc reproduction)

USAGE: nocsim [OPTIONS]

  --org ORG          mesh | smart | pra | ideal | frfc [mesh]
  --pattern PAT      uniform | transpose | complement |
                     core_to_llc | hotspot:<node>      [uniform]
  --injection PROC   bernoulli | onoff:<on>:<off> |
                     mmpp:<boost>:<lo>:<hi>:<max>      [bernoulli]
  --workload NAME    preset pattern+burst shape from a
                     CloudSuite workload profile (explicit
                     --pattern/--injection still win)
  --class-priority R,C,S
                     arbitration priority per class
                     (request,coherence,response; higher wins)
  --rate F           injection rate, packets/node/cycle [0.02]
  --response-frac F  fraction of multi-flit responses   [0.5]
  --warmup N         warm-up cycles                     [2000]
  --cycles N         measured cycles                    [20000]
  --seed N           RNG seed                           [1]
  --radix N          mesh radix (NxN)                   [8]
  --vc-depth N       flits per virtual channel          [5]
  --hpc N            max hops per cycle                 [2]
  --fault-ppb N      transient fault rate, events per
                     billion cycle-resources            [0 = off]
  --fault-seed N     fault plan RNG seed                [0]
  --retry-budget N   enable end-to-end reliable delivery:
                     retransmissions per packet before
                     escalation (0..=32)                [off]
  --ack-timeout N    reliable delivery: cycles before an
                     unacked packet retransmits (>= 1,
                     doubles per attempt; implies the
                     overlay, default 256)
  --backoff-base N   reliable delivery: retransmission
                     jitter bound in cycles (implies the
                     overlay, default 32)
  --include-warmup   report cumulative statistics (warm-up
                     included) instead of the default
                     measured window
  --trace FILE       replay a JSON trace instead of
                     synthetic traffic
  --record FILE      record the synthetic injections to a
                     replayable JSON trace
  --trace-out FILE   write a Chrome/Perfetto trace of the run
  --help             this text
";

/// Parses `value` as a probability, the range `TrafficGen` accepts for
/// injection rates and response fractions.
fn probability(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| format!("bad {flag} '{value}' (valid values: 0..=1)"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{HELP}");
            std::process::exit(0);
        }
        if flag == "--include-warmup" {
            opts.include_warmup = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--org" => {
                opts.org = Organization::from_key(&value).ok_or_else(|| {
                    format!("unknown organisation '{value}' (valid values: {ORG_KEYS}, pra)")
                })?;
            }
            "--pattern" => {
                // `corellc` is the historical nocsim spelling of the
                // sweep-spec key `core_to_llc`; both stay accepted.
                opts.pattern = if value == "corellc" {
                    Pattern::CoreToLlc
                } else {
                    pattern_from_key(&value).ok_or_else(|| {
                        format!("unknown pattern '{value}' (valid values: {PATTERN_KEYS})")
                    })?
                };
                opts.pattern_set = true;
            }
            "--injection" => {
                opts.injection = injection_from_key(&value).ok_or_else(|| {
                    format!("unknown injection process '{value}' (valid values: {INJECTION_KEYS})")
                })?;
                opts.injection_set = true;
            }
            "--workload" => {
                opts.workload = Some(WorkloadKind::from_key(&value).ok_or_else(|| {
                    format!("unknown workload '{value}' (valid values: {WORKLOAD_KEYS})")
                })?);
            }
            "--class-priority" => {
                let parts: Vec<&str> = value.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!(
                        "bad --class-priority '{value}' (expected three \
                         comma-separated integers: request,coherence,response)"
                    ));
                }
                let mut prio = [0u8; 3];
                for (slot, part) in prio.iter_mut().zip(&parts) {
                    *slot = part
                        .parse()
                        .map_err(|_| format!("bad --class-priority entry '{part}'"))?;
                }
                opts.class_priority = Some(prio);
            }
            "--rate" => opts.rate = probability(&flag, &value)?,
            "--response-frac" => opts.response_fraction = probability(&flag, &value)?,
            "--warmup" => opts.warmup = value.parse().map_err(|_| "bad --warmup".to_string())?,
            "--cycles" => opts.cycles = value.parse().map_err(|_| "bad --cycles".to_string())?,
            "--seed" => opts.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--radix" => opts.radix = value.parse().map_err(|_| "bad --radix".to_string())?,
            "--vc-depth" => {
                opts.vc_depth = value.parse().map_err(|_| "bad --vc-depth".to_string())?
            }
            "--hpc" => opts.hpc = value.parse().map_err(|_| "bad --hpc".to_string())?,
            "--fault-ppb" => {
                opts.fault_ppb = value
                    .parse()
                    .map_err(|_| format!("bad --fault-ppb '{value}' (valid values: 0..=4294967295 events per billion cycle-resources)"))?;
            }
            "--fault-seed" => {
                opts.fault_seed = value.parse().map_err(|_| {
                    format!("bad --fault-seed '{value}' (valid values: a u64 seed)")
                })?;
            }
            "--retry-budget" => {
                opts.retry_budget = Some(
                    value
                        .parse::<u8>()
                        .ok()
                        .filter(|&b| b <= 32)
                        .ok_or_else(|| {
                            format!(
                                "bad --retry-budget '{value}' (valid values: 0..=32 \
                                 retransmissions before escalation)"
                            )
                        })?,
                );
            }
            "--ack-timeout" => {
                opts.ack_timeout = Some(value.parse::<u64>().ok().filter(|&t| t >= 1).ok_or_else(
                    || format!("bad --ack-timeout '{value}' (valid values: cycles >= 1)"),
                )?);
            }
            "--backoff-base" => {
                opts.backoff_base = Some(value.parse::<u64>().map_err(|_| {
                    format!("bad --backoff-base '{value}' (valid values: a cycle count)")
                })?);
            }
            "--trace" => opts.trace = Some(value),
            "--record" => opts.record = Some(value),
            "--trace-out" => opts.trace_out = Some(value),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    // A workload preset fills in whatever pattern/burst shape the user
    // did not pin explicitly.
    if let Some(workload) = opts.workload {
        if !opts.pattern_set {
            opts.pattern = Pattern::CoreToLlc;
        }
        if !opts.injection_set {
            let shape = workload.profile().burst_shape();
            opts.injection = InjectionProcess::OnOff {
                on_len: shape.on_len,
                off_len: shape.off_len,
            };
        }
    }
    Ok(opts)
}

fn config_for(opts: &Options) -> Result<NocConfig, String> {
    let mut b = NocConfigBuilder::new()
        .radix(opts.radix)
        .vc_depth(opts.vc_depth)
        .max_hops_per_cycle(opts.hpc);
    if let Some(priority) = opts.class_priority {
        b = b.class_priority(priority);
    }
    if opts.fault_ppb > 0 {
        b = b.faults(
            noc::faults::FaultPlan::new(opts.fault_seed).transient_rate_ppb(opts.fault_ppb),
        );
    }
    // Any reliability knob switches the overlay on; missing knobs take
    // the production defaults, and the overlay's jitter RNG reuses the
    // traffic seed so one `--seed` pins the whole run.
    if opts.retry_budget.is_some() || opts.ack_timeout.is_some() || opts.backoff_base.is_some() {
        let mut rel = noc::reliable::ReliabilityConfig::with_seed(opts.seed);
        if let Some(budget) = opts.retry_budget {
            rel.retry_budget = budget;
        }
        if let Some(timeout) = opts.ack_timeout {
            rel.ack_timeout = timeout;
        }
        if let Some(base) = opts.backoff_base {
            rel.backoff_base = base;
        }
        b = b.reliability(rel);
    }
    b.build().map_err(|e| e.to_string())
}

/// Stable lower-case class labels for metric keys and report rows.
const CLASS_LABELS: [&str; 3] = ["request", "coherence", "response"];

/// The per-class latency metric key for a virtual-channel index.
fn class_metric(vc: usize) -> String {
    format!("packet.latency_cycles.{}", CLASS_LABELS[vc])
}

/// Records one delivery batch into the metrics registry (exact sparse
/// histograms — unlike `NetStats`' capped buckets, these keep full
/// resolution at any latency), overall and per message class.
fn observe_deliveries(metrics: &mut MetricsRegistry, delivered: &[noc::network::Delivered]) {
    for d in delivered {
        metrics.inc("nocsim.packets_delivered", 1);
        let latency = d.delivered.saturating_sub(d.packet.created);
        metrics.observe("packet.latency_cycles", latency);
        metrics.observe(&class_metric(d.packet.class.vc()), latency);
        metrics.observe("packet.hops", u64::from(d.hops));
    }
}

fn report(net: &dyn Network, total_cycles: u64, metrics: &MetricsRegistry, window: &str) {
    let s = net.stats();
    println!("\n== results ({window}) ==");
    println!("cycles simulated       {total_cycles}");
    println!("packets delivered      {}", s.delivered());
    println!(
        "  requests / coherence / responses   {} / {} / {}",
        s.packets_delivered[0], s.packets_delivered[1], s.packets_delivered[2]
    );
    println!("avg packet latency     {:.2} cycles", s.avg_latency());
    println!(
        "  requests {:.2} / responses {:.2}",
        s.avg_latency_of(MessageClass::Request),
        s.avg_latency_of(MessageClass::Response)
    );
    println!("avg source queueing    {:.2} cycles", s.avg_queue_latency());
    // Exact percentiles from the metrics registry when the run fed it;
    // the capped `NetStats` histogram is the fallback (trace replay).
    let percentiles = match metrics.histogram("packet.latency_cycles") {
        Some(h) => (h.percentile(0.50), h.percentile(0.95), h.percentile(0.99)),
        None => (
            s.latency_percentile(0.50),
            s.latency_percentile(0.95),
            s.latency_percentile(0.99),
        ),
    };
    if let (Some(p50), Some(p95), Some(p99)) = percentiles {
        println!("latency p50/p95/p99    {p50} / {p95} / {p99} cycles");
    }
    // Per-class latency summary (exact histograms; silent for classes
    // that delivered nothing in the window).
    for (vc, label) in CLASS_LABELS.iter().enumerate() {
        if let Some(h) = metrics.histogram(&class_metric(vc)) {
            if let (Some(p50), Some(p95), Some(p99), Some(max)) = (
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
                h.percentile(1.0),
            ) {
                println!("  {label:<9} p50/p95/p99/max  {p50} / {p95} / {p99} / {max} cycles");
            }
        }
    }
    println!("avg hops               {:.2}", s.avg_hops());
    println!("max latency            {} cycles", s.max_latency);
    println!(
        "throughput             {:.3} packets/cycle",
        s.delivered() as f64 / total_cycles.max(1) as f64
    );
    println!("link traversals        {}", s.link_traversals);
    if s.reserved_moves > 0 {
        println!("-- PRA activity --");
        println!("reserved-slot moves    {}", s.reserved_moves);
        println!("wasted reservations    {}", s.wasted_reservations);
        println!(
            "blocked-by-reservation {:.4}% of packet latency",
            s.reservation_blocking_fraction() * 100.0
        );
    }
    // Lifetime overlay counters (never reset at the warm-up boundary),
    // so the partition below covers the whole run, not the window.
    if let Some(rel) = net.reliable_stats() {
        println!("-- reliability --");
        println!("packets tracked        {}", rel.tracked);
        println!("retransmits            {}", rel.retransmits);
        println!("duplicates suppressed  {}", rel.duplicates_suppressed);
        println!("escalations            {}", rel.escalations);
        println!(
            "delivered or escalated {} of {} tracked",
            rel.delivered + rel.escalations,
            rel.tracked
        );
    }
}

/// Writes a Chrome/Perfetto `trace_event` JSON file assembled from the
/// recorder's completed flights plus the control-plane instants still in
/// its ring log.
fn write_trace(path: &str, rec: &std::rc::Rc<std::cell::RefCell<niobs::Recorder>>) {
    let rec = rec.borrow();
    let instants: Vec<niobs::TimedEvent> = rec.log.iter().cloned().collect();
    let doc = niobs::chrome_trace(rec.flights.completed(), &instants);
    match std::fs::write(path, doc.to_string()) {
        Ok(()) => println!("trace written to {path}"),
        Err(e) => {
            eprintln!("nocsim: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nocsim: {e}");
            std::process::exit(2);
        }
    };
    let cfg = match config_for(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nocsim: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let mut net = AnyNetwork::new(opts.org, cfg.clone());
    let mut metrics = MetricsRegistry::new();
    let recorder = opts.trace_out.as_ref().map(|_| {
        let rec = niobs::Recorder::default().into_shared();
        net.install_obs(rec.clone());
        rec
    });
    println!(
        "nocsim: {} on {}x{} mesh, {} flits/VC, {} hops/cycle",
        opts.org.name(),
        cfg.radix,
        cfg.radix,
        cfg.vc_depth,
        cfg.max_hops_per_cycle
    );

    if let Some(path) = &opts.trace {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("nocsim: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let trace = match Trace::from_json(&json) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("nocsim: bad trace {path}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(i) = trace.validate(cfg.nodes() as u16) {
            eprintln!("nocsim: trace entry {i} is invalid for this mesh");
            std::process::exit(1);
        }
        println!("replaying {} packets from {path}", trace.len());
        let (delivered, cycles) = replay(&mut net, trace);
        println!("delivered {delivered} packets in {cycles} cycles");
        report(&net, cycles, &metrics, "trace replay, cumulative");
        if let (Some(out), Some(rec)) = (&opts.trace_out, &recorder) {
            write_trace(out, rec);
        }
        return;
    }

    println!(
        "pattern {:?}, injection {}, rate {}, responses {:.0}%, {}+{} cycles, seed {}",
        opts.pattern,
        injection_key(opts.injection),
        opts.rate,
        opts.response_fraction * 100.0,
        opts.warmup,
        opts.cycles,
        opts.seed
    );
    if let Some(workload) = opts.workload {
        println!("workload preset: {}", workload.name());
    }
    let mut gen = TrafficGen::new(cfg, opts.pattern, opts.rate, opts.seed)
        .response_fraction(opts.response_fraction)
        .injection(opts.injection);
    if opts.record.is_some() {
        gen = gen.record_trace();
    }
    for _ in 0..opts.warmup {
        gen.tick(&mut net);
        net.step();
        observe_deliveries(&mut metrics, &net.drain_delivered());
    }
    if !opts.include_warmup {
        // Open the measured window: drop everything accumulated during
        // warm-up so the reported statistics cover only `--cycles`.
        net.reset_stats();
        metrics.begin_epoch();
    }
    for _ in 0..opts.cycles {
        gen.tick(&mut net);
        net.step();
        observe_deliveries(&mut metrics, &net.drain_delivered());
    }
    let (reported_cycles, window) = if opts.include_warmup {
        (opts.warmup + opts.cycles, "cumulative, warm-up included")
    } else {
        (opts.cycles, "measured window, warm-up excluded")
    };
    report(&net, reported_cycles, &metrics, window);
    if let Some(path) = &opts.record {
        let trace = gen.take_trace();
        match std::fs::write(path, trace.to_json()) {
            Ok(()) => println!("recorded {} injections to {path}", trace.len()),
            Err(e) => {
                eprintln!("nocsim: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let (Some(out), Some(rec)) = (&opts.trace_out, &recorder) {
        write_trace(out, rec);
    }
}
