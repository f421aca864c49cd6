//! The repository benchmark: three seeded workloads, end-to-end metrics
//! with tracing off, and per-layer metrics from a separate traced run.
//! See `README.md` in this directory for what each workload and metric
//! is for.

pub mod codec;
pub mod fields;
pub mod reference;
pub mod serve;
pub mod stats;
pub mod trace;

use crate::codec::{CodecSet, FieldTrace, KERNELS, STAGES};
use crate::fields::Slot;
use crate::stats::{describe, median, percentile};
use cuszp_datagen::{DatasetKind, Scale};
use cuszp_parallel::WorkerPool;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed used when none is given. Check a claim also on seed 7, which no
/// tuning of the benchmark used.
pub const DEFAULT_SEED: u64 = 20_211;

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a correctness gate.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 3-D fields, where Lorenzo construct and reconstruct dominate.
    Codec3d,
    /// 1-D and 2-D fields, where Huffman dominates, plus one RLE field.
    CodecLowdim,
    /// 1-D, 2-D and 3-D fields at once, so range reads and puts span
    /// every archive shape.
    ServeMixed,
}

const NYX_DENSITY: Slot = Slot {
    dataset: DatasetKind::Nyx,
    candidates: &["baryon_density", "dark_matter_density"],
};
const HURRICANE_CLOUD: Slot = Slot {
    dataset: DatasetKind::Hurricane,
    candidates: &["CLOUDf48"],
};
// Not a pick among vx/vy/vz: at the same size, vz compresses about 15%
// slower than vx and vy, so the seed would change the workload.
const HACC_VELOCITY: Slot = Slot {
    dataset: DatasetKind::Hacc,
    candidates: &["vx"],
};
const CESM_AEROD: Slot = Slot {
    dataset: DatasetKind::CesmAtm,
    candidates: &["AEROD_v"],
};
const CESM_LANDFRAC: Slot = Slot {
    dataset: DatasetKind::CesmAtm,
    candidates: &["LANDFRAC"],
};

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Codec3d,
        Workload::CodecLowdim,
        Workload::ServeMixed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Codec3d => "codec-3d",
            Workload::CodecLowdim => "codec-lowdim",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fields the workload compresses and serves.
    pub fn slots(self) -> &'static [Slot] {
        match self {
            Workload::Codec3d => &[NYX_DENSITY, HURRICANE_CLOUD],
            Workload::CodecLowdim => &[HACC_VELOCITY, CESM_AEROD, CESM_LANDFRAC],
            Workload::ServeMixed => &[HACC_VELOCITY, CESM_AEROD, NYX_DENSITY],
        }
    }
}

/// Share of the measured seconds given to the codec loop; the rest goes
/// to the service loop. The codec throughputs are scaled to the host's
/// reference speed and hold steady over a short loop; the service
/// latencies are not, and need the longer one.
const CODEC_SHARE: f64 = 0.3;
/// Times the set-up is repeated; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest codec reps, whatever `seconds` says.
const MIN_CODEC_REPS: usize = 5;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every input and schedule.
    pub seed: u64,
    /// Seconds to measure, split between the codec and service loops.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Field size.
    pub scale: Scale,
    /// Directory for stores and spans.
    pub out_dir: PathBuf,
}

impl Params {
    /// The settings the command line uses.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Small,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

/// The end-to-end metrics and their units, reported with tracing off.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("compress_mb_s", "MiB/s"),
    ("decompress_mb_s", "MiB/s"),
    ("ratio", "x"),
    ("range_p50_ms", "ms"),
    ("range_p95_ms", "ms"),
    ("range_ops_s", "1/s"),
    ("put_p50_ms", "ms"),
    ("put_p95_ms", "ms"),
    ("put_ops_s", "1/s"),
];

/// Per-layer metrics beyond the stage timings and computed bytes.
const PER_LAYER_EXTRA: [(&str, &str); 21] = [
    ("core.unaccounted_ms", "ms"),
    ("trace.codec_overhead_ms", "ms"),
    ("predictor.outliers", "count"),
    ("huffman.avg_bits", "bits"),
    ("huffman.payload_bytes", "bytes"),
    ("core.chunks", "count"),
    ("server.cluster_get_ms", "ms"),
    ("core.range_decode_ms", "ms"),
    ("server.cluster_put_ms", "ms"),
    ("trace.range_overhead_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.sync_ms", "ms"),
    ("store.get_ms", "ms"),
    ("ecc.encode_ms", "ms"),
    ("ecc.encode_mib_computed", "MiB"),
    ("server.requests", "count"),
    ("server.busy", "count"),
    ("server.shed", "count"),
    ("cluster.degraded_reads", "count"),
    ("cluster.redirects_followed", "count"),
    ("cluster.shard_failures", "count"),
];

/// Every per-layer metric and its unit, reported by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    STAGES
        .iter()
        .map(|s| (format!("{s}_ms"), "ms"))
        .chain(KERNELS.iter().map(|k| (format!("{k}_mib_computed"), "MiB")))
        .chain(PER_LAYER_EXTRA.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines, printed before the JSON result.
    pub lines: Vec<String>,
    /// The metrics of the JSON result.
    pub metrics: Vec<Metric>,
    /// Operations per kind.
    pub tallies: Vec<(&'static str, Tally)>,
}

impl Report {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.tallies.iter().all(|(_, t)| t.failed == 0)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let attempted: u64 = self.tallies.iter().map(|(_, t)| t.attempted).sum();
        let failed: u64 = self.tallies.iter().map(|(_, t)| t.failed).sum();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            metrics.join(", ")
        )
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Raises the allocator's adaptive mmap threshold to its ceiling before
/// any thread starts. glibc raises it whenever a large mapped block is
/// freed, so without this the point at which the field-sized buffers
/// stop being mapped afresh depends on how the node threads' frees
/// interleave with the codec's, and `peak_rss_mib` jumps by tens of MiB
/// between otherwise identical runs. A long-running process reaches the
/// same state after its first large free.
fn settle_allocator() {
    let block: Vec<u8> = Vec::with_capacity(31 << 20);
    drop(std::hint::black_box(block));
}

/// Runs one workload and returns its report. The set-up (field
/// generation, the untimed warm-up rep per field, node boot, pre-puts
/// and connection warm-up) runs `SETUPS` times and only the last one is
/// measured on; then the service loop and the codec loop run for their
/// shares of `seconds`.
pub fn run(p: &Params) -> Result<Report, String> {
    cuszp_parallel::set_workers(1);
    settle_allocator();
    let pool = WorkerPool::new(1);
    let tmp = p
        .out_dir
        .join(format!("tmp-{}-{}", p.workload.name(), std::process::id()));
    let result = run_in(p, &pool, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

fn run_in(p: &Params, pool: &WorkerPool, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut prepared: Option<(CodecSet, serve::Service)> = None;
    for k in 0..SETUPS {
        if let Some((set, svc)) = prepared.take() {
            drop(set);
            svc.shutdown()?;
        }
        let t = Instant::now();
        let inputs = fields::generate_inputs(p.workload.slots(), p.seed, p.scale)?;
        let set = CodecSet::prepare(inputs, pool)?;
        let svc = serve::Service::prepare(&set, pool, p.seed, &tmp.join(format!("setup-{k}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((set, svc));
    }
    let (set, svc) = prepared.expect("at least one set-up ran");
    let labels: Vec<&str> = set.inputs.iter().map(|i| i.label.as_str()).collect();
    report.lines.push(format!(
        "workload {} seed {} fields [{}] ({:.2} MiB, rel eb {}, 1 codec worker)",
        p.workload.name(),
        p.seed,
        labels.join(", "),
        set.input_bytes() as f64 / (1 << 20) as f64,
        codec::REL_EB
    ));

    // Service loop first, while the warmed-up connections are fresh (a
    // node closes a connection that stays idle past its read timeout).
    let epoch = Instant::now();
    let mut tracer = trace::Tracer::new(epoch, 0);
    let mut served = serve::ServeResult::new(p.trace.then_some(epoch));
    let serve_secs = p.seconds * (1.0 - CODEC_SHARE);
    let mut svc = svc;
    if let Err(e) = svc.drive(serve_secs, &mut served) {
        let _ = svc.shutdown();
        return Err(e);
    }
    let probe_archive = p.trace.then(|| svc.archives[0].clone());
    svc.finish(&mut served)?;

    // Codec loop for the rest of the measured seconds.
    let mut tally = codec::CodecTally::default();
    let mib = set.input_bytes() as f64 / (1 << 20) as f64;
    let codec_end = epoch + std::time::Duration::from_secs_f64(p.seconds);
    let mut speeds = CodecSpeeds::default();
    let mut traced: Vec<Vec<FieldTrace>> = Vec::new();
    let mut overhead = Vec::new();
    while speeds.reps() < MIN_CODEC_REPS || Instant::now() < codec_end {
        let r = reference::pass(&set.inputs[0].data);
        let (tc, td) = codec::rep(&set, pool, &mut tally);
        speeds.push(mib, tc, td, r);
        if p.trace {
            let op = traced.len() as u64;
            let fts: Vec<FieldTrace> = set
                .inputs
                .iter()
                .zip(&set.archives)
                .map(|(input, expected)| {
                    codec::traced_rep(&mut tracer, op, input, expected, pool, &mut tally)
                })
                .collect();
            let traced_ms: f64 = fts
                .iter()
                .map(|f| f.e2e_compress_ms + f.e2e_decompress_ms)
                .sum();
            overhead.push(traced_ms - (tc + td) * 1e3);
            traced.push(fts);
        }
    }

    report.tallies = vec![
        ("compress", tally.compress),
        ("decompress", tally.decompress),
        ("range_read", served.reads),
        ("put", served.puts),
        ("cluster_counters", served.counters),
    ];
    if p.trace {
        report.tallies.push(("replay", tally.replay));
        let probe = serve::probe(probe_archive.as_deref().unwrap_or_default(), tmp)?;
        layer_metrics(&mut report, &set, &traced, &overhead, &served, &probe);
        for t in [served.read_tracer.take(), served.write_tracer.take()]
            .into_iter()
            .flatten()
        {
            tracer.absorb(t);
        }
        let path = p
            .out_dir
            .join(format!("spans-{}-{}.jsonl", p.workload.name(), p.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.lines.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
    } else {
        e2e_metrics(&mut report, &set, &setup_s, &speeds, &served)?;
    }
    for (kind, t) in &report.tallies {
        report.lines.push(format!(
            "ops {kind}: {} attempted, {} failed",
            t.attempted, t.failed
        ));
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", m.name));
    }
    Ok(report)
}

/// Per-rep codec throughputs, as measured and scaled to the host's
/// reference speed (see [`reference`]).
#[derive(Debug, Default)]
struct CodecSpeeds {
    comp: Vec<f64>,
    decomp: Vec<f64>,
    comp_wall: Vec<f64>,
    decomp_wall: Vec<f64>,
    stream_ms: Vec<f64>,
    chain_ms: Vec<f64>,
}

impl CodecSpeeds {
    fn reps(&self) -> usize {
        self.comp.len()
    }

    /// Records one rep of `mib` input MiB that compressed in `tc` and
    /// decompressed in `td` seconds, right after the reference pass `r`.
    fn push(&mut self, mib: f64, tc: f64, td: f64, r: reference::Pass) {
        self.comp_wall.push(mib / tc);
        self.decomp_wall.push(mib / td);
        self.comp
            .push(mib / tc * r.slowdown(reference::COMPRESS_STREAM_SHARE));
        self.decomp
            .push(mib / td * r.slowdown(reference::DECOMPRESS_STREAM_SHARE));
        self.stream_ms.push(r.stream_s * 1e3);
        self.chain_ms.push(r.chain_s * 1e3);
    }
}

fn e2e_metrics(
    report: &mut Report,
    set: &CodecSet,
    setup_s: &[f64],
    speeds: &CodecSpeeds,
    served: &serve::ServeResult,
) -> Result<(), String> {
    let (comp, decomp) = (&speeds.comp, &speeds.decomp);
    let rss = peak_rss_mib()?;
    let ratio = set.input_bytes() as f64 / set.archive_bytes() as f64;
    report
        .lines
        .push(format!("setup_s: {}", describe(setup_s, "s")));
    report.lines.push(format!("peak_rss_mib: {rss:.1} MiB"));
    // A throughput's tail is its slow side: the low percentile of the
    // rate is the high percentile of the rep time.
    let inverse = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| 1.0 / x).collect() };
    report.lines.push(format!(
        "reference kernel: stream {} (reference {:.2} ms); chain {} (reference {:.2} ms)",
        describe(&speeds.stream_ms, "ms"),
        reference::REFERENCE_STREAM_S * 1e3,
        describe(&speeds.chain_ms, "ms"),
        reference::REFERENCE_CHAIN_S * 1e3
    ));
    for (name, v, wall) in [
        ("compress_mb_s", comp, &speeds.comp_wall),
        ("decompress_mb_s", decomp, &speeds.decomp_wall),
    ] {
        report.lines.push(format!(
            "{name}: median {:.2} MiB/s at reference speed, {:.2} MiB/s wall clock; seconds per reference MiB: {}",
            median(v),
            median(wall),
            describe(&inverse(v), "s/MiB")
        ));
    }
    report.lines.push(format!(
        "ratio: {ratio:.4} ({} input bytes / {} archive bytes)",
        set.input_bytes(),
        set.archive_bytes()
    ));
    report.lines.push(format!(
        "range read latency: {}; {:.2} reads/s",
        describe(&served.read_ms, "ms"),
        served.reads_per_s()
    ));
    report.lines.push(format!(
        "put latency: {}; {:.2} puts/s",
        describe(&served.put_ms, "ms"),
        served.puts_per_s()
    ));
    for (name, value) in [
        ("setup_s", median(setup_s)),
        ("peak_rss_mib", rss),
        ("compress_mb_s", median(comp)),
        ("decompress_mb_s", median(decomp)),
        ("ratio", ratio),
        ("range_p50_ms", median(&served.read_ms)),
        ("range_p95_ms", percentile(&served.read_ms, 95.0)),
        ("range_ops_s", served.reads_per_s()),
        ("put_p50_ms", median(&served.put_ms)),
        ("put_p95_ms", percentile(&served.put_ms, 95.0)),
        ("put_ops_s", served.puts_per_s()),
    ] {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("listed in END_TO_END");
        report.metric(name, value, unit);
    }
    Ok(())
}

fn layer_metrics(
    report: &mut Report,
    set: &CodecSet,
    traced: &[Vec<FieldTrace>],
    overhead: &[f64],
    served: &serve::ServeResult,
    probe: &serve::ProbeResult,
) {
    // Per rep, summed over the workload's fields; medians over reps.
    let per_rep = |f: &dyn Fn(&FieldTrace) -> f64| -> f64 {
        let sums: Vec<f64> = traced.iter().map(|fts| fts.iter().map(f).sum()).collect();
        median(&sums)
    };
    for (i, s) in STAGES.iter().enumerate() {
        report.metric(&format!("{s}_ms"), per_rep(&|f| f.stage_ms[i]), "ms");
    }
    for (i, k) in KERNELS.iter().enumerate() {
        report.metric(
            &format!("{k}_mib_computed"),
            per_rep(&|f| f.kernel_mib[i]),
            "MiB",
        );
    }
    let bits = per_rep(&|f| f.huffman_bits as f64);
    let symbols = per_rep(&|f| f.huffman_symbols as f64);
    let mib = |bytes: f64| bytes / (1 << 20) as f64;
    let values: [(&str, f64); 15] = [
        ("core.unaccounted_ms", per_rep(&FieldTrace::unaccounted_ms)),
        ("trace.codec_overhead_ms", median(overhead)),
        ("predictor.outliers", per_rep(&|f| f.outliers as f64)),
        (
            "huffman.avg_bits",
            if symbols > 0.0 { bits / symbols } else { 0.0 },
        ),
        (
            "huffman.payload_bytes",
            per_rep(&|f| f.huffman_payload_bytes as f64),
        ),
        ("core.chunks", per_rep(&|f| f.chunks as f64)),
        ("server.cluster_get_ms", median(&served.get_ms)),
        ("core.range_decode_ms", median(&served.range_decode_ms)),
        ("server.cluster_put_ms", median(&served.put_ms)),
        (
            "trace.range_overhead_ms",
            median(&served.traced_read_ms) - median(&served.read_ms),
        ),
        ("store.put_ms", median(&probe.store_put_ms)),
        ("store.sync_ms", median(&probe.store_sync_ms)),
        ("store.get_ms", median(&probe.store_get_ms)),
        ("ecc.encode_ms", median(&probe.ecc_encode_ms)),
        (
            "ecc.encode_mib_computed",
            mib(probe.ecc_stripe_bytes as f64),
        ),
    ];
    for (name, value) in values {
        report.metric(name, value, unit_of(name));
    }
    for (name, value) in &served.counter_values {
        report.metric(name, *value, "count");
    }
    table_vii(report, set, traced);
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER_EXTRA
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("listed in PER_LAYER_EXTRA")
}

/// The per-stage table: median ms per field over the traced reps, with
/// each stage's share of that field's end-to-end compress or decompress
/// time and its computed bandwidth.
fn table_vii(report: &mut Report, set: &CodecSet, traced: &[Vec<FieldTrace>]) {
    report.lines.push(format!(
        "CPU Table VII: median ms per field over {} traced reps; share of the field's end-to-end compress or decompress time",
        traced.len()
    ));
    let field_median = |i: usize, f: &dyn Fn(&FieldTrace) -> f64| -> f64 {
        median(&traced.iter().map(|fts| f(&fts[i])).collect::<Vec<_>>())
    };
    let mut header = format!("{:<26}", "stage");
    for input in &set.inputs {
        header += &format!(" {:<30}", input.label);
    }
    report.lines.push(header);
    let e2e: Vec<(f64, f64)> = (0..set.inputs.len())
        .map(|i| {
            (
                field_median(i, &|f| f.e2e_compress_ms),
                field_median(i, &|f| f.e2e_decompress_ms),
            )
        })
        .collect();
    for (s, name) in STAGES.iter().enumerate() {
        let mut row = format!("{name:<26}");
        for (i, (c, d)) in e2e.iter().enumerate() {
            let ms = field_median(i, &|f| f.stage_ms[s]);
            let whole = if s < codec::FIRST_DECOMPRESS_STAGE {
                c
            } else {
                d
            };
            let gbs = KERNELS
                .iter()
                .position(|k| k == name)
                .map(|k| field_median(i, &|f| f.kernel_mib[k]) / 1024.0 / (ms / 1e3))
                .filter(|g| g.is_finite())
                .map_or(String::new(), |g| format!("{g:5.1} GiB/s"));
            row += &format!(" {ms:8.2} {:3.0}% {gbs:>11}     ", 100.0 * ms / whole);
        }
        report.lines.push(row);
    }
    for (label, f) in [
        (
            "end-to-end compress",
            &(|f: &FieldTrace| f.e2e_compress_ms) as &dyn Fn(&FieldTrace) -> f64,
        ),
        ("end-to-end decompress", &|f: &FieldTrace| {
            f.e2e_decompress_ms
        }),
        ("unaccounted", &FieldTrace::unaccounted_ms),
    ] {
        let mut row = format!("{label:<26}");
        for i in 0..set.inputs.len() {
            row += &format!(" {:8.2}{:22}", field_median(i, f), "");
        }
        report.lines.push(row);
    }
    report.lines.push(
        "GiB/s figures are computed from element counts and type widths, not measured traffic"
            .to_string(),
    );
}
