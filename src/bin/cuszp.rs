//! `cuszp` — command-line front-end for the compressor.
//!
//! ```text
//! cuszp compress   -i field.f32 -o field.csz -d 512x512x512 [-e 1e-3] [-m abs|rel]
//!                  [-w auto|huffman|rle|rle+vle] [--double]
//! cuszp decompress -i field.csz -o recon.f32
//! cuszp info       -i field.csz
//! cuszp analyze    -i field.f32 -d 1800x3600 [-e 1e-2] [-m rel]
//! cuszp gen        -o field.f32 --dataset cesm --field FSDSC [--scale small]
//! cuszp serve      [-a 127.0.0.1:7117] [--workers 2] [--queue 16]
//! cuszp remote <compress|decompress|scan|info|stats|ping|shutdown> -s <addr> ...
//! ```
//!
//! Input/output rasters are raw little-endian `f32` (or `f64` with
//! `--double`), SDRBench's convention: dimensions travel out-of-band via
//! `-d`, fastest axis last.

use cuszp::analysis::analyze;
use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::faultsim::{ChaosPolicy, ChaosProxy};
use cuszp::metrics::{verify_error_bound, verify_error_bound_f64};
use cuszp::parallel::WorkerPool;
use cuszp::predictor::Scalar;
use cuszp::server::{
    ClusterClient, ClusterConfig, CompressRequest, ConnectOptions, DecompressMode, RetryPolicy,
    RetryingClient, Ring, Server, ServerConfig, StoreBackendConfig,
};
use cuszp::store::{FsyncPolicy, StoreConfig};
use cuszp::{
    json_escape, Archive, ChunkStatus, ChunkedArchive, Compressor, Config, Dims, Dtype, ErrorBound,
    FillPolicy, LosslessMode, ParityConfig, PortableScanReport, Predictor, PredictorMode,
    RangeSpec, ScanReport, WorkflowChoice, WorkflowMode,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `remote` and `cluster` take a positional sub-operation
    // (`cuszp remote scan ...`, `cuszp cluster put ...`); split it off
    // before option parsing. `cluster-scrub` is an alias for
    // `cluster scrub`, the anti-entropy repair pass.
    let mut remote_op: Option<&str> = None;
    let mut cluster_op: Option<&str> = None;
    let mut rest = rest;
    if cmd == "remote" || cmd == "cluster" {
        let Some((sub, sub_rest)) = rest.split_first() else {
            eprintln!("error: {cmd} needs an operation\n\n{USAGE}");
            return ExitCode::from(2);
        };
        if cmd == "remote" {
            remote_op = Some(sub.as_str());
        } else {
            cluster_op = Some(sub.as_str());
        }
        rest = sub_rest;
    }
    if cmd == "cluster-scrub" {
        cluster_op = Some("scrub");
    }
    // `fsck` (and `remote scan`/`remote info`) take their archive as a
    // positional argument; normalize to `-i` so option parsing stays
    // uniform.
    let takes_positional_archive = cmd == "fsck"
        || cmd == "store-fsck"
        || matches!(
            remote_op,
            Some("scan" | "info" | "decompress" | "get-range")
        );
    // Cluster data ops take their key positionally; normalize to `-k`.
    let takes_positional_key = matches!(cluster_op, Some("put" | "get" | "get-range"));
    let norm_rest: Vec<String>;
    let rest = if (takes_positional_archive || takes_positional_key)
        && rest.first().is_some_and(|a| !a.starts_with('-'))
    {
        let opt = if takes_positional_key { "-k" } else { "-i" };
        norm_rest = [opt.to_string(), rest[0].clone()]
            .into_iter()
            .chain(rest[1..].iter().cloned())
            .collect();
        &norm_rest[..]
    } else {
        rest
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "compress" if opts.has_flag("double") => {
            cmd_compress::<f64>(&opts).map(|()| ExitCode::SUCCESS)
        }
        "compress" => cmd_compress::<f32>(&opts).map(|()| ExitCode::SUCCESS),
        "decompress" => cmd_decompress(&opts).map(|()| ExitCode::SUCCESS),
        "extract" => cmd_extract(&opts).map(|()| ExitCode::SUCCESS),
        "info" => cmd_info(&opts).map(|()| ExitCode::SUCCESS),
        // fsck picks its own exit code: 0 clean, 1 damaged-but-repaired
        // (or repairable), 2 data loss.
        "fsck" => cmd_fsck(&opts),
        // store-fsck shares the taxonomy: 0 clean, 1 repairable via
        // cluster-scrub, 2 directory unreadable.
        "store-fsck" => cmd_store_fsck(&opts),
        "analyze" if opts.has_flag("double") => {
            cmd_analyze::<f64>(&opts).map(|()| ExitCode::SUCCESS)
        }
        "analyze" => cmd_analyze::<f32>(&opts).map(|()| ExitCode::SUCCESS),
        "gen" => cmd_gen(&opts).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(&opts).map(|()| ExitCode::SUCCESS),
        "chaos-proxy" => cmd_chaos_proxy(&opts).map(|()| ExitCode::SUCCESS),
        // `remote scan` mirrors fsck's exit-code contract.
        "remote" => cmd_remote(remote_op.unwrap(), &opts),
        "cluster" | "cluster-scrub" => cmd_cluster(cluster_op.unwrap(), &opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cuszp — error-bounded lossy compression for scientific data (cuSZ+ reproduction)

USAGE:
  cuszp compress   -i <raw> -o <archive> -d <dims> [-e <bound>] [-m abs|rel]
                   [-w auto|huffman|rle|rle+vle] [-p lorenzo|interp] [--double]
                   [--threads <n>] [--stats] [--parity <m/k>]
  cuszp decompress -i <archive> -o <raw> [--verify <original raw>] [--threads <n>]
                   [--recover [--fill nan|zero]]
  cuszp extract    -i <archive> -o <raw> --range <spec>
                   [--recover [--fill nan|zero]]
  cuszp info       -i <archive>
  cuszp fsck       <archive> [--repair] [--json]
  cuszp analyze    -i <raw> -d <dims> [-e <bound>] [-m abs|rel] [--double]
  cuszp gen        -o <raw> --dataset <name> --field <name> [--scale tiny|small]
  cuszp serve      [-a <addr>] [--workers <n>] [--queue <n>] [--cache-bytes <n>]
                   [--node-id <id> --ring <id=addr,...> [--ring-epoch <n>]
                    [--ring-parity <m/k>] [--data-dir <path>]
                    [--fsync always|never|<bytes>] [--compact-at <bytes>]]
  cuszp store-fsck <data-dir> [--json]
  cuszp cluster put       <key> -i <archive> --seeds <addr,addr,...>
  cuszp cluster get       <key> -o <archive> --seeds <addr,addr,...>
  cuszp cluster get-range <key> -o <raw> --range <spec>
                          --seeds <addr,addr,...>
  cuszp cluster ring|scrub --seeds <addr,addr,...>
  cuszp cluster-scrub      --seeds <addr,addr,...>   (alias of cluster scrub)
  cuszp remote compress   -s <addr> -i <raw> -o <archive> -d <dims> [-e] [-m]
                          [-w] [-p] [--double] [--parity <m/k>] [--chunk <elems>]
  cuszp remote decompress <archive> -o <raw> [-s <addr>]
                          [--recover [--fill nan|zero]]
  cuszp remote get-range  <archive> -o <raw> --range <spec> [-s <addr>]
                          [--recover [--fill nan|zero]]
  cuszp remote scan       <archive> [-s <addr>] [--json]
  cuszp remote info       <archive> [-s <addr>]
  cuszp remote stats|ping|health|shutdown -s <addr>
  cuszp chaos-proxy --upstream <addr> [-a <addr>] [--seed <n>]
                    [--profile clean|mixed] [--refuse <pm>] [--cut-request <pm>]
                    [--cut-response <pm>] [--flip <pm>] [--stall <pm>]
                    [--chop <pm>] [--chop-piece <bytes>] [--redraw-bytes <n>]
                    [--kill-after-bytes <n>]

OPTIONS:
  -d  dimensions, fastest axis last: '268435456', '1800x3600', '512x512x512'
  -e  error bound (default 1e-4)
  -m  bound mode: 'rel' (relative to value range, default) or 'abs'
  -w  workflow (default auto = the compressibility-aware selector)
  -p  predictor: 'lorenzo' (default), 'interp' (multi-level cubic), or
      'auto' (score both per chunk and record the choice in the plan)
  --lossless  allow the post-coding bitshuffle+LZ77 stage where a sampled
              probe says it pays (recorded per chunk in the plan)
  --double   treat the raw file as f64
  --threads  chunk-parallel engine with an n-worker pool; compress writes the
             multi-chunk (v2) archive, whose bytes are identical for any n
  --stats    with --threads: aggregate per-chunk compression stats (workflow
             mix, bit rate, outliers) on stderr
  --parity   append Reed-Solomon parity stripes (m parity per k data shards,
             RAID-style '2/8'); any <= m damaged shards per stripe later
             repair bit-exactly. Implies the chunked (v2) container.
  --recover  fault-isolated decompression of a damaged chunked archive:
             shards covered by parity are repaired first, then undamaged
             chunks reconstruct exactly and lost slabs are filled
             (--fill nan|zero, default nan) and reported per chunk
  --range    sub-volume to extract, one 'start:end' (half-open, element
             coordinates of the logical field) per axis, fastest axis last:
             '1000:5000', '10:20x0:3600', '2:6x100:200x0:512'. The written
             raster holds exactly the requested sub-volume, row-major.
  --cache-bytes  serve only: byte budget for the hot-slab range cache
             (default 64 MiB; 0 disables). Repeated `remote get-range`
             reads of the same chunks skip the decoder entirely.
  --retries  remote <op> only: retry transport failures up to <n> extra
             attempts with seeded decorrelated-jitter backoff, reconnecting
             as needed. Only idempotent ops retry (shutdown never does);
             server `retry_after` hints raise the next backoff.
  --deadline-ms      remote <op> only: overall wall-clock budget per call,
             covering every attempt, reconnect, and backoff sleep
             (default 30000)
  --connect-timeout-ms  remote <op> only: TCP connect timeout per attempt
             (default 5000)
  --dataset  one of: hacc cesm hurricane nyx rtm miranda qmcpack

`fsck` validates and decodes every chunk independently (healing damaged
shards from parity when possible), prints a per-chunk report (--json for a
machine-readable one), and exits 0 when clean, 1 when damage exists but
parity covers all of it (with --repair: heals the file in place, atomically),
and 2 on data loss.

`serve` runs the compression service (CSRP framed protocol over TCP; -a
defaults to 127.0.0.1:7117, port 0 picks an ephemeral port). Each worker owns
a reusable pipeline engine; a full queue answers clients with a typed `busy`
error. `remote <op>` talks to a server (-s defaults to 127.0.0.1:7117):
compression runs server-side through the same chunked pipeline, so the
archive bytes match a local `cuszp compress --threads` exactly. `remote scan`
mirrors fsck's report and exit codes; `remote stats` prints live service
metrics (per-op counts, bytes, latency percentiles, cache hit rates).

`extract` decodes only the chunks a `--range` touches — a 3-slab slice of a
terabyte field never decompresses the whole field. `remote get-range` is the
served form: hot chunks come from the server's slab cache, and `--recover`
reads around damage, reporting exactly the damaged in-range chunks.

`serve --node-id N --ring <id=addr,...>` joins a fault-tolerant cluster:
every archive key is split into k data + m parity shards (--ring-parity,
default 1/2) and placed on distinct members by rendezvous hashing. The
`cluster` ops route shard traffic with failover: while at most m placement
nodes are down, `cluster get`/`get-range` still return bit-identical bytes,
reconstructing missing shards from parity. Stale clients are answered with
typed redirect errors carrying the current epoch and owner. `cluster-scrub`
is the anti-entropy pass: it lists every reachable member's verified shards
and re-replicates anything missing or dropped as corrupt (exit 0 fully
healthy, 1 when lost stripes or unreachable members remain).

`serve --data-dir <path>` makes a cluster node durable: shards are appended
to checksummed log segments (`seg-<n>.czl`) under <path>, the index is
rebuilt by scanning them at boot (torn tails truncated, corrupt records
skipped and reported), and overwritten/deleted slots are reclaimed by
size-triggered compaction (--compact-at, default 256 MiB) behind an atomic
manifest swap. --fsync picks the durability contract: `always` (default —
an acknowledged put survives kill -9), a byte interval, or `never`.
A durable node restarted with its data dir serves its shards bit-identically
with zero scrub repairs. `store-fsck` scans a data dir offline (read-only,
same scanner as boot recovery) and prints per-record status: exit 0 clean,
1 damage repairable via restart + cluster-scrub, 2 directory unreadable.

`chaos-proxy` relays TCP to --upstream while injecting seeded faults
(connection refusal, mid-frame cuts, bit flips, stalls, chopped writes) —
point `remote <op> --retries` at it to rehearse client resilience. Fault
rates are per-mille per redraw epoch; the same seed replays the same faults.
`remote health` is a cheap liveness probe: exit 0 when serving, 1 when
draining (the reply carries the server's retry-after hint).";

struct Opts(HashMap<String, String>);

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option -{key}"))
    }

    fn has_flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a.trim_start_matches('-').to_string();
        if !a.starts_with('-') {
            return Err(format!("unexpected positional argument '{a}'"));
        }
        // Boolean flags.
        if matches!(
            key.as_str(),
            "double" | "verify-none" | "recover" | "stats" | "repair" | "json" | "lossless"
        ) {
            map.insert(key, String::new());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("option -{key} needs a value"))?;
        map.insert(key, value.clone());
    }
    Ok(Opts(map))
}

fn parse_dims(spec: &str) -> Result<Dims, String> {
    let parts: Result<Vec<usize>, _> = spec.split(['x', 'X']).map(str::parse).collect();
    let parts = parts.map_err(|e| format!("bad dims '{spec}': {e}"))?;
    match parts.as_slice() {
        [n] => Ok(Dims::D1(*n)),
        [ny, nx] => Ok(Dims::D2 { ny: *ny, nx: *nx }),
        [nz, ny, nx] => Ok(Dims::D3 {
            nz: *nz,
            ny: *ny,
            nx: *nx,
        }),
        _ => Err(format!("dims must have 1-3 axes, got {}", parts.len())),
    }
}

fn parse_config(opts: &Opts) -> Result<Config, String> {
    let eb: f64 = opts
        .get("e")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad error bound: {e}"))?
        .unwrap_or(1e-4);
    let error_bound = match opts.get("m").unwrap_or("rel") {
        "rel" => ErrorBound::Relative(eb),
        "abs" => ErrorBound::Absolute(eb),
        other => return Err(format!("bad mode '{other}' (abs|rel)")),
    };
    let workflow = match opts.get("w").unwrap_or("auto") {
        "auto" => WorkflowMode::Auto,
        "huffman" => WorkflowMode::Force(WorkflowChoice::Huffman),
        "rle" => WorkflowMode::Force(WorkflowChoice::Rle),
        "rle+vle" => WorkflowMode::Force(WorkflowChoice::RleVle),
        other => return Err(format!("bad workflow '{other}'")),
    };
    let predictor = match opts.get("p").unwrap_or("lorenzo") {
        "lorenzo" => PredictorMode::Force(Predictor::Lorenzo),
        "interp" | "interpolation" => PredictorMode::Force(Predictor::Interpolation),
        "auto" => PredictorMode::Auto,
        other => return Err(format!("bad predictor '{other}'")),
    };
    let lossless = if opts.has_flag("lossless") {
        LosslessMode::Auto
    } else {
        LosslessMode::Off
    };
    Ok(Config {
        error_bound,
        workflow,
        predictor,
        lossless,
        ..Config::default()
    })
}

/// Reads a raw little-endian field of `T`.
fn read_raw<T: Scalar>(path: &str) -> Result<Vec<T>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.len() % T::BYTES != 0 {
        return Err(format!(
            "{path}: file size {} is not a multiple of {}",
            bytes.len(),
            T::BYTES
        ));
    }
    Ok(bytes.chunks_exact(T::BYTES).map(T::read_le).collect())
}

/// The stored element type of archive bytes. An unusable header reads as
/// `f32`, whose decode then reports the parser's typed error.
fn stored_dtype(bytes: &[u8]) -> Dtype {
    Dtype::of_archive(bytes).unwrap_or(Dtype::F32)
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(bytes))
        .map_err(|e| format!("{path}: {e}"))
}

/// Parses `--threads` into a pool width, if present.
fn parse_threads(opts: &Opts) -> Result<Option<usize>, String> {
    opts.get("threads")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| format!("bad --threads '{s}': {e}"))
        })
        .transpose()
}

fn cmd_compress<T: Scalar>(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let output = opts.require("o")?;
    let dims = parse_dims(opts.require("d")?)?;
    let config = parse_config(opts)?;
    let threads = parse_threads(opts)?;
    let parity = opts
        .get("parity")
        .map(ParityConfig::parse)
        .transpose()
        .map_err(|e| e.to_string())?;
    let compressor = Compressor::new(config);

    let t0 = std::time::Instant::now();
    let data = read_raw::<T>(input)?;
    // Parity stripes live in the chunked (v2) container, so --parity
    // selects it even without --threads.
    let bytes = if threads.is_some() || parity.is_some() {
        // Chunk-parallel engine: multi-chunk (v2) archive, byte-identical
        // for any worker count.
        let pool = match threads {
            Some(n) => WorkerPool::new(n),
            None => WorkerPool::with_default_workers(),
        };
        let target = cuszp::parallel::DEFAULT_CHUNK_ELEMS;
        let (mut arc, stats) = compressor
            .compress_chunked_with_stats(&data, dims, target, &pool)
            .map_err(|e| e.to_string())?;
        if let Some(cfg) = parity {
            arc.add_parity(cfg, &pool);
        }
        eprintln!(
            "chunked: {} chunks, {} workers{}",
            arc.n_chunks(),
            pool.workers(),
            match &arc.parity {
                Some(p) => format!(
                    ", parity {}/{} ({} stripes)",
                    p.parity_shards, p.data_shards, p.n_stripes
                ),
                None => String::new(),
            }
        );
        if opts.has_flag("stats") {
            eprintln!("{stats}");
        }
        arc.to_bytes()
    } else {
        let (archive, stats) = compressor
            .compress_with_stats(&data, dims)
            .map_err(|e| e.to_string())?;
        eprintln!("{stats}");
        archive.to_bytes()
    };
    let original_bytes = data.len() * T::BYTES;
    write_bytes(output, &bytes)?;
    eprintln!(
        "wrote {} bytes to {output} in {:.2}s ({:.1} MB/s, ratio {:.2}x)",
        bytes.len(),
        t0.elapsed().as_secs_f64(),
        original_bytes as f64 / 1e6 / t0.elapsed().as_secs_f64(),
        original_bytes as f64 / bytes.len().max(1) as f64
    );
    Ok(())
}

fn cmd_decompress(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let output = opts.require("o")?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    if let Some(n) = parse_threads(opts)? {
        // Pool width for chunk fan-out (v1 archives reconstruct whole).
        cuszp::parallel::set_workers(n);
    }
    if opts.has_flag("recover") {
        return cmd_decompress_recover(opts, input, output, &bytes);
    }
    let t0 = std::time::Instant::now();
    let out_bytes = match stored_dtype(&bytes) {
        Dtype::F32 => decompress_raw::<f32>(opts, &bytes, |o, r, eb| {
            verify_error_bound(o, r, eb).map(drop)
        })?,
        Dtype::F64 => decompress_raw::<f64>(opts, &bytes, verify_error_bound_f64)?,
    };
    write_bytes(output, &out_bytes)?;
    eprintln!(
        "wrote {} bytes to {output} in {:.2}s",
        out_bytes.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Parses and decodes an archive as `T` (one parse: its bound comes from
/// the parsed header), checks it against `--verify` with `verify`, and
/// returns the raw little-endian field.
fn decompress_raw<T: Scalar>(
    opts: &Opts,
    bytes: &[u8],
    verify: impl Fn(&[T], &[T], f64) -> Result<(), (usize, f64)>,
) -> Result<Vec<u8>, String> {
    let engine = cuszp::ReconstructEngine::FinePartialSum;
    let (decoded, eb) = if cuszp::is_chunked_archive(bytes) {
        let arc = ChunkedArchive::from_bytes(bytes).map_err(|e| e.to_string())?;
        (
            arc.decode(engine, &WorkerPool::with_default_workers()),
            arc.eb,
        )
    } else {
        let archive = Archive::from_bytes(bytes).map_err(|e| e.to_string())?;
        (cuszp::decompress_archive(&archive, engine), archive.eb)
    };
    let (data, _): (Vec<T>, _) = decoded.map_err(|e| e.to_string())?;
    if let Some(orig_path) = opts.get("verify") {
        let orig = read_raw::<T>(orig_path)?;
        verify(&orig, &data, eb).map_err(|(i, e)| format!("bound violated at {i}: {e} > {eb}"))?;
        eprintln!("verified against {orig_path}: max|err| <= {eb}");
    }
    Ok(T::le_bytes(&data))
}

/// `extract --range`: decode only the chunks a sub-volume touches and
/// write that sub-volume as a raw row-major raster of the archive's
/// stored element type.
fn cmd_extract(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let output = opts.require("o")?;
    let spec = RangeSpec::parse(opts.require("range")?).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    match stored_dtype(&bytes) {
        Dtype::F32 => extract_range::<f32>(opts, input, output, &spec, &bytes),
        Dtype::F64 => extract_range::<f64>(opts, input, output, &spec, &bytes),
    }
}

fn extract_range<T: Scalar>(
    opts: &Opts,
    input: &str,
    output: &str,
    spec: &RangeSpec,
    bytes: &[u8],
) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    if opts.has_flag("recover") {
        let fill = FillPolicy::parse(opts.get("fill").unwrap_or("nan"))
            .ok_or_else(|| format!("bad --fill '{}' (nan|zero)", opts.get("fill").unwrap_or("")))?;
        let rf = cuszp::decompress_range_resilient::<T>(bytes, spec, fill)
            .map_err(|e| format!("{input}: {e}"))?;
        let reports = &rf.reports;
        for r in reports.iter().filter(|r| !r.status.is_recovered()) {
            eprintln!(
                "  chunk {}: {} (elements {}..{})",
                r.index, r.status, r.elem_range.start, r.elem_range.end
            );
        }
        let out_bytes = T::le_bytes(&rf.data);
        write_bytes(output, &out_bytes)?;
        eprintln!(
            "extracted {spec} -> {output} ({:?}, {} bytes, {}/{} in-range chunks ok) in {:.2}s",
            rf.dims,
            out_bytes.len(),
            reports.iter().filter(|r| r.status.is_recovered()).count(),
            reports.len(),
            t0.elapsed().as_secs_f64()
        );
        return Ok(());
    }
    let (data, dims) =
        cuszp::decompress_range::<T>(bytes, spec).map_err(|e| format!("{input}: {e}"))?;
    let out_bytes = T::le_bytes(&data);
    write_bytes(output, &out_bytes)?;
    eprintln!(
        "extracted {spec} -> {output} ({dims:?}, {} bytes) in {:.2}s",
        out_bytes.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `decompress --recover`: fault-isolated decompression. The strict
/// metadata parse is skipped on purpose — the archive may be damaged —
/// and the element type is read from the header alone.
fn cmd_decompress_recover(
    opts: &Opts,
    input: &str,
    output: &str,
    bytes: &[u8],
) -> Result<(), String> {
    if opts.get("verify").is_some() {
        return Err(
            "--verify cannot be combined with --recover (damaged slabs hold fill values)".into(),
        );
    }
    let fill = FillPolicy::parse(opts.get("fill").unwrap_or("nan"))
        .ok_or_else(|| format!("bad --fill '{}' (nan|zero)", opts.get("fill").unwrap_or("")))?;
    let t0 = std::time::Instant::now();
    let recovered = match stored_dtype(bytes) {
        Dtype::F32 => cuszp::decompress_resilient::<f32>(bytes, fill)
            .map(|rf| (f32::le_bytes(&rf.data), rf.reports)),
        Dtype::F64 => cuszp::decompress_resilient::<f64>(bytes, fill)
            .map(|rf| (f64::le_bytes(&rf.data), rf.reports)),
    };
    let (out_bytes, reports) = recovered.map_err(|e| format!("{input}: unrecoverable: {e}"))?;
    let damaged: Vec<_> = reports
        .iter()
        .filter(|r| !r.status.is_recovered())
        .collect();
    let repaired = reports
        .iter()
        .filter(|r| matches!(r.status, ChunkStatus::Repaired { .. }))
        .count();
    for r in &damaged {
        eprintln!(
            "  chunk {}: {} (elements {}..{})",
            r.index, r.status, r.elem_range.start, r.elem_range.end
        );
    }
    write_bytes(output, &out_bytes)?;
    eprintln!(
        "recovered {}/{} chunks to {output} in {:.2}s{}{}",
        reports.len() - damaged.len(),
        reports.len(),
        t0.elapsed().as_secs_f64(),
        if repaired > 0 {
            format!(" ({repaired} chunk(s) healed from parity)")
        } else {
            String::new()
        },
        if damaged.is_empty() {
            String::new()
        } else {
            format!(" ({} damaged slab(s) filled)", damaged.len())
        }
    );
    Ok(())
}

/// `fsck`: validates and decodes every chunk independently (repairing
/// damaged shards from parity first), prints a per-chunk and per-stripe
/// report, and exits 0 (clean), 1 (damage fully covered by parity — with
/// `--repair`, healed in place), or 2 (data loss).
fn cmd_fsck(opts: &Opts) -> Result<ExitCode, String> {
    let input = opts.require("i")?;
    let json = opts.has_flag("json");
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;

    // An unusable container header means nothing is recoverable: that is
    // data loss, not a usage error.
    let scanned = if opts.has_flag("repair") {
        cuszp::repair(&bytes).map(Some)
    } else {
        cuszp::scan(&bytes).map(|r| {
            Some(cuszp::RepairOutcome {
                bytes: Vec::new(),
                report: r,
                modified: false,
            })
        })
    };
    let outcome = match scanned {
        Ok(o) => o.unwrap(),
        Err(e) => {
            if json {
                println!(
                    "{{\"archive\":\"{}\",\"error\":\"{}\",\"exit_code\":2}}",
                    json_escape(input),
                    json_escape(&e.to_string())
                );
            } else {
                eprintln!("error: {input}: {e}");
            }
            return Ok(ExitCode::from(2));
        }
    };
    let report = &outcome.report;
    let mut code = fsck_exit_code(report);
    let rewritten = if opts.has_flag("repair") {
        let do_write = code != 2 && outcome.modified;
        if do_write {
            write_atomic(input, &outcome.bytes)?;
            // The file on disk is whole again.
            code = 0;
        }
        Some(do_write)
    } else {
        None
    };

    if json {
        println!("{}", fsck_json(input, report, code, rewritten));
        return Ok(ExitCode::from(code));
    }

    println!("archive: {input} ({})", report.format);
    if let Some(dims) = report.dims {
        println!("  dims:   {dims:?} ({} elements)", dims.len());
    }
    if let Some(dtype) = report.dtype {
        println!("  dtype:  {}", dtype.name());
    }
    println!("  chunks: {} declared", report.declared_chunks);
    for r in &report.reports {
        let loc = match &r.byte_range {
            Some(range) => format!("bytes {}..{}", range.start, range.end),
            None => "unlocatable".to_string(),
        };
        let plan = r
            .plan
            .map_or(String::new(), |p| format!(", plan {}", p.label()));
        println!(
            "    [{}] {}  ({loc}, elements {}..{}{plan})",
            r.index, r.status, r.elem_range.start, r.elem_range.end
        );
    }
    if let Some(p) = &report.parity {
        println!(
            "  parity: {}/{} (shard {} B, {} stripes): {} repaired, {} unrepairable",
            p.parity_shards,
            p.data_shards,
            p.shard_size,
            p.n_stripes,
            p.n_repaired(),
            p.n_unrepairable()
        );
    }
    match (code, rewritten) {
        (2, _) => println!(
            "  data loss: {} of {} chunk(s) unrecoverable",
            report.n_damaged(),
            report.reports.len()
        ),
        (_, Some(true)) => println!("  repaired: {input} rewritten, archive is whole again"),
        (1, _) => {
            println!("  repairable: damage is covered by parity; run `cuszp fsck {input} --repair`")
        }
        _ => println!(
            "  clean: all {} chunk(s) validated and decoded",
            report.reports.len()
        ),
    }
    Ok(ExitCode::from(code))
}

/// 0 = clean, 1 = damaged but fully covered by parity, 2 = data loss.
fn fsck_exit_code(report: &ScanReport) -> u8 {
    if report.n_damaged() > 0 {
        2
    } else if report.n_repaired() > 0 || report.parity.as_ref().is_some_and(|p| !p.is_intact()) {
        1
    } else {
        0
    }
}

/// Writes via a temp file in the same directory plus rename, so a crash
/// mid-repair never leaves a half-written archive where a good (if
/// damaged) one used to be.
fn write_atomic(path: &str, bytes: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.repair.{}", std::process::id());
    write_bytes(&tmp, bytes)?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("{path}: {e}")
    })
}

/// The whole fsck report as one JSON object. The report body renders
/// through [`PortableScanReport::to_json_fields`] — the same code path
/// as `remote scan --json` and the wire form, so the formats cannot
/// drift. `repaired_file` is null without `--repair`, else whether the
/// archive was rewritten.
fn fsck_json(input: &str, report: &ScanReport, code: u8, repaired_file: Option<bool>) -> String {
    format!(
        "{{\"archive\":\"{}\",{},\"repaired_file\":{},\"exit_code\":{}}}",
        json_escape(input),
        PortableScanReport::from(report).to_json_fields(),
        repaired_file.map_or("null".to_string(), |b| b.to_string()),
        code
    )
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    if cuszp::is_chunked_archive(&bytes) {
        let arc = ChunkedArchive::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let n = arc.dims.len();
        println!("archive: {input} (chunked v2)");
        println!("  dtype:        {}", arc.dtype.name());
        println!("  dims:         {:?} ({n} elements)", arc.dims);
        println!("  error bound:  {:.6e} (absolute, global)", arc.eb);
        println!(
            "  chunks:       {} (target {} elems)",
            arc.n_chunks(),
            arc.chunk_target
        );
        for (i, ch) in arc.chunks.iter().enumerate() {
            println!(
                "    [{i}] {:?}  plan {}  {} outliers  {} bytes",
                ch.dims,
                ch.plan().label(),
                ch.outliers.len(),
                ch.serialized_bytes()
            );
        }
        let mix: Vec<String> = [
            WorkflowChoice::Huffman,
            WorkflowChoice::Rle,
            WorkflowChoice::RleVle,
        ]
        .into_iter()
        .filter_map(|c| {
            let count = arc
                .chunks
                .iter()
                .filter(|ch| ch.payload.choice() == c)
                .count();
            (count > 0).then(|| format!("{} x{count}", c.name()))
        })
        .collect();
        println!("  workflow mix: {}", mix.join(", "));
        let plan_mix: Vec<String> = {
            let mut mix: Vec<(String, usize)> = Vec::new();
            for ch in &arc.chunks {
                let label = ch.plan().label();
                match mix.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, n)) => *n += 1,
                    None => mix.push((label, 1)),
                }
            }
            mix.into_iter()
                .map(|(label, n)| format!("{label} x{n}"))
                .collect()
        };
        println!("  plan mix:     {}", plan_mix.join(", "));
        let outliers: usize = arc.chunks.iter().map(|ch| ch.outliers.len()).sum();
        println!(
            "  outliers:     {} ({:.3}%)",
            outliers,
            100.0 * outliers as f64 / n.max(1) as f64
        );
        match &arc.parity {
            Some(p) => {
                let section = p.serialized_bytes();
                println!(
                    "  parity:       {}/{} (shard {} B, {} stripes, {} bytes = {:.2}% overhead)",
                    p.parity_shards,
                    p.data_shards,
                    p.shard_size,
                    p.n_stripes,
                    section,
                    100.0 * section as f64 / bytes.len().max(1) as f64
                );
            }
            None => println!("  parity:       none"),
        }
        println!("  stored size:  {} bytes", bytes.len());
        println!(
            "  ratio:        {:.2}x",
            (n * arc.dtype.bytes()) as f64 / bytes.len().max(1) as f64
        );
        return Ok(());
    }
    let archive = Archive::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let n = archive.dims.len();
    println!("archive: {input}");
    println!("  dtype:        {}", archive.dtype.name());
    println!("  dims:         {:?} ({n} elements)", archive.dims);
    println!("  error bound:  {:.6e} (absolute)", archive.eb);
    println!("  quant cap:    {}", archive.cap);
    println!("  predictor:    {}", archive.predictor.name());
    println!("  workflow:     {}", archive.payload.choice().name());
    println!("  plan:         {}", archive.plan().label());
    println!(
        "  outliers:     {} ({:.3}%)",
        archive.outliers.len(),
        100.0 * archive.outliers.len() as f64 / n.max(1) as f64
    );
    println!("  stored size:  {} bytes", bytes.len());
    println!(
        "  ratio:        {:.2}x",
        (n * archive.dtype.bytes()) as f64 / bytes.len() as f64
    );
    Ok(())
}

fn cmd_analyze<T: Scalar>(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let dims = parse_dims(opts.require("d")?)?;
    let config = parse_config(opts)?;
    let data = read_raw::<T>(input)?;
    if data.len() != dims.len() {
        return Err(format!(
            "{input} has {} elements, dims say {}",
            data.len(),
            dims.len()
        ));
    }
    let eb = config.error_bound.absolute(&data);
    let qf = cuszp::predictor::construct(&data, dims, eb, cuszp::predictor::DEFAULT_CAP);
    let report = analyze(&qf.codes, qf.cap());
    println!("field: {input} {dims:?}, abs eb {eb:.6e}");
    println!("  outliers:      {:.3}%", qf.outlier_fraction() * 100.0);
    println!("  p1:            {:.4}", report.p1);
    println!("  entropy:       {:.3} bits/symbol", report.entropy);
    println!(
        "  <b> bracket:   [{:.3}, {:.3}] bits",
        report.b_lower, report.b_upper
    );
    println!("  roughness(1):  {:.4}", report.roughness);
    println!("  est CR (VLE):  {:.1}x", report.est_cr_huffman);
    println!("  est CR (RLE):  {:.1}x", report.est_cr_rle);
    println!("  recommended:   {}", report.choice.name());
    Ok(())
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let output = opts.require("o")?;
    let dataset = match opts.require("dataset")?.to_ascii_lowercase().as_str() {
        "hacc" => DatasetKind::Hacc,
        "cesm" | "cesm-atm" => DatasetKind::CesmAtm,
        "hurricane" => DatasetKind::Hurricane,
        "nyx" => DatasetKind::Nyx,
        "rtm" => DatasetKind::Rtm,
        "miranda" => DatasetKind::Miranda,
        "qmcpack" => DatasetKind::Qmcpack,
        other => return Err(format!("unknown dataset '{other}'")),
    };
    let field_name = opts.require("field")?;
    let scale = match opts.get("scale").unwrap_or("small") {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        other => return Err(format!("bad scale '{other}'")),
    };
    let spec = dataset_fields(dataset)
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(field_name))
        .ok_or_else(|| {
            let names: Vec<&str> = dataset_fields(dataset).iter().map(|s| s.name).collect();
            format!(
                "no field '{field_name}' in {}; available: {}",
                dataset.name(),
                names.join(", ")
            )
        })?;
    let field = generate(&spec, scale);
    cuszp::datagen::write_f32_raw(Path::new(output), &field.data)
        .map_err(|e| format!("{output}: {e}"))?;
    eprintln!(
        "generated {}/{} {:?} -> {output} ({} bytes); compress with: cuszp compress -i {output} -o {output}.csz -d {}",
        dataset.name(),
        spec.name,
        field.dims,
        field.bytes(),
        dims_spec(field.dims)
    );
    Ok(())
}

fn dims_spec(dims: Dims) -> String {
    match dims {
        Dims::D1(n) => format!("{n}"),
        Dims::D2 { ny, nx } => format!("{ny}x{nx}"),
        Dims::D3 { nz, ny, nx } => format!("{nz}x{ny}x{nx}"),
    }
}

// ---------------------------------------------------------------------
// The compression service: `serve` and `remote <op>`.
/// `store-fsck <data-dir>`: offline, read-only scan of a durable shard
/// store's segment files, sharing the store crate's recovery scanner so
/// it can never disagree with what a node boot would accept. Exit codes
/// follow the fsck taxonomy: 0 clean, 1 damage found but repairable
/// (torn tails truncate at the next boot; dropped shards re-replicate
/// via `cluster-scrub`), 2 the directory itself is unreadable.
fn cmd_store_fsck(opts: &Opts) -> Result<ExitCode, String> {
    let dir = opts
        .get("i")
        .ok_or("store-fsck needs a data directory argument")?;
    let json = opts.has_flag("json");
    let report = match cuszp::store::scan_dir(Path::new(dir)) {
        Ok(r) => r,
        Err(e) => {
            if json {
                println!(
                    "{{\"data_dir\":\"{}\",\"error\":\"{}\",\"exit_code\":2}}",
                    json_escape(dir),
                    json_escape(&e.to_string())
                );
            } else {
                eprintln!("error: {dir}: {e}");
            }
            return Ok(ExitCode::from(2));
        }
    };
    let code = report.exit_code();
    if json {
        let mut out = format!("{{\"data_dir\":\"{}\",\"segments\":[", json_escape(dir));
        for (si, seg) in report.segments.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"bytes\":{},\"records\":[",
                seg.seq, seg.bytes
            ));
            for (ri, r) in seg.records.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                let status = match &r.status {
                    cuszp::store::RecordStatus::Live => "live",
                    cuszp::store::RecordStatus::Superseded => "superseded",
                    cuszp::store::RecordStatus::Tombstone => "tombstone",
                    cuszp::store::RecordStatus::Damaged(_) => "damaged",
                };
                out.push_str(&format!(
                    "{{\"offset\":{},\"status\":\"{status}\"",
                    r.offset
                ));
                if let Some((key, idx)) = &r.key {
                    out.push_str(&format!(
                        ",\"key\":\"{}\",\"shard_idx\":{idx},\"len\":{}",
                        json_escape(key),
                        r.payload_len
                    ));
                }
                if let cuszp::store::RecordStatus::Damaged(fault) = &r.status {
                    out.push_str(&format!(
                        ",\"detail\":\"{}\"",
                        json_escape(&fault.to_string())
                    ));
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str(&format!(
            "],\"live\":{},\"superseded\":{},\"tombstones\":{},\"damaged\":{},\"exit_code\":{code}}}",
            report.live_shards, report.superseded, report.tombstones, report.damaged
        ));
        println!("{out}");
        return Ok(ExitCode::from(code as u8));
    }
    println!("store: {dir} ({} segment(s))", report.segments.len());
    for fault in &report.dir_faults {
        println!("  DIRECTORY: {fault}");
    }
    for seg in &report.segments {
        println!("  seg-{:08}.czl  {} bytes", seg.seq, seg.bytes);
        for r in &seg.records {
            match &r.key {
                Some((key, idx)) => println!(
                    "    @{:<10} {}  '{key}' shard {idx} ({} bytes)",
                    r.offset, r.status, r.payload_len
                ),
                None => println!("    @{:<10} {}", r.offset, r.status),
            }
        }
    }
    println!(
        "  {} live, {} superseded, {} tombstone(s), {} damaged",
        report.live_shards, report.superseded, report.tombstones, report.damaged
    );
    if code == 0 {
        println!("  clean");
    } else {
        println!(
            "  repairable: a node restart truncates torn tails; `cuszp cluster-scrub` \
             re-replicates dropped shards"
        );
    }
    Ok(ExitCode::from(code as u8))
}

// ---------------------------------------------------------------------

const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// `serve`: run the compression service until a `remote shutdown` (or a
/// signal kills the process). Prints the bound address on stdout first,
/// so scripts binding port 0 can discover the ephemeral port.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("a")
        .or_else(|| opts.get("addr"))
        .unwrap_or(DEFAULT_ADDR);
    let mut config = ServerConfig::default();
    if let Some(w) = opts.get("workers") {
        config.workers = w.parse().map_err(|e| format!("bad --workers '{w}': {e}"))?;
    }
    if let Some(q) = opts.get("queue") {
        config.queue_capacity = q.parse().map_err(|e| format!("bad --queue '{q}': {e}"))?;
    }
    if let Some(c) = opts.get("cache-bytes") {
        config.cache_bytes = c
            .parse()
            .map_err(|e| format!("bad --cache-bytes '{c}': {e}"))?;
    }
    // Cluster mode: `--node-id` + `--ring` turn this instance into one
    // member of an erasure-coded placement ring (CSRP v3 shard ops).
    if opts.get("data-dir").is_some()
        && (opts.get("node-id").is_none() || opts.get("ring").is_none())
    {
        return Err("--data-dir needs cluster mode (--node-id and --ring)".into());
    }
    let cluster = match (opts.get("node-id"), opts.get("ring")) {
        (None, None) => None,
        (Some(id), Some(ring_spec)) => {
            let node_id: u64 = id
                .parse()
                .map_err(|e| format!("bad --node-id '{id}': {e}"))?;
            let epoch: u64 = match opts.get("ring-epoch") {
                Some(v) => v
                    .parse()
                    .map_err(|e| format!("bad --ring-epoch '{v}': {e}"))?,
                None => 1,
            };
            let (m, k) = match opts.get("ring-parity") {
                Some(v) => {
                    let p =
                        ParityConfig::parse(v).map_err(|e| format!("bad --ring-parity: {e}"))?;
                    (p.parity_shards, p.data_shards)
                }
                None => (1, 2),
            };
            let ring =
                Ring::parse_spec(ring_spec, epoch, k, m).map_err(|e| format!("bad --ring: {e}"))?;
            // Shard persistence: `--data-dir` switches the node from the
            // in-memory store (empty after restart, healed by scrub) to
            // the durable log-structured store.
            let backend = match opts.get("data-dir") {
                Some(dir) => {
                    let mut store_config = StoreConfig::new(dir);
                    if let Some(policy) = opts.get("fsync") {
                        store_config.fsync =
                            FsyncPolicy::parse(policy).map_err(|e| format!("bad --fsync: {e}"))?;
                    }
                    if let Some(bytes) = opts.get("compact-at") {
                        store_config.compact_at = bytes
                            .parse()
                            .map_err(|e| format!("bad --compact-at '{bytes}': {e}"))?;
                    }
                    StoreBackendConfig::Durable(store_config)
                }
                None => {
                    if opts.get("fsync").is_some() || opts.get("compact-at").is_some() {
                        return Err("--fsync / --compact-at need --data-dir (durable store)".into());
                    }
                    StoreBackendConfig::Memory
                }
            };
            Some(ClusterConfig {
                node_id,
                ring,
                backend,
            })
        }
        _ => return Err("cluster mode needs both --node-id and --ring".into()),
    };
    let workers = config.workers;
    let queue_capacity = config.queue_capacity;
    let cluster_banner = cluster.as_ref().map(|c| {
        let store_desc = match &c.backend {
            StoreBackendConfig::Memory => "memory shard store".to_string(),
            StoreBackendConfig::Durable(sc) => format!(
                "durable shard store at {} (fsync {}, compact at {} bytes)",
                sc.dir.display(),
                sc.fsync,
                sc.compact_at
            ),
        };
        format!(
            "node {} of {} (epoch {}, {}+{} shards per stripe), {store_desc}",
            c.node_id,
            c.ring.nodes().len(),
            c.ring.epoch,
            c.ring.data_shards,
            c.ring.parity_shards
        )
    });
    let server = Server::bind_cluster(addr, config, cluster).map_err(|e| format!("{addr}: {e}"))?;
    let recovery_banner = server.handle().store_recovery_summary();
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!("cuszp-server listening on {bound}");
    eprintln!(
        "  {} workers (one pipeline engine each), queue capacity {}; stop with: cuszp remote shutdown -s {bound}",
        workers, queue_capacity
    );
    if let Some(banner) = cluster_banner {
        eprintln!("  cluster: {banner}");
    }
    if let Some(recovery) = recovery_banner {
        eprintln!("  recovery: {recovery}");
    }
    server.serve().map_err(|e| e.to_string())?;
    eprintln!("cuszp-server: drained, bye");
    Ok(())
}

/// `chaos-proxy`: run a seeded fault-injection relay in front of
/// `--upstream` until the process is killed. Prints the bound address on
/// stdout first (same shape as `serve`) so scripts binding port 0 can
/// discover the ephemeral port; injection counters go to stderr
/// periodically.
fn cmd_chaos_proxy(opts: &Opts) -> Result<(), String> {
    let upstream_spec = opts
        .get("u")
        .or_else(|| opts.get("upstream"))
        .ok_or("chaos-proxy needs --upstream <addr>")?;
    let upstream = resolve_addr(upstream_spec)?;
    let listen_spec = opts
        .get("a")
        .or_else(|| opts.get("addr"))
        .unwrap_or("127.0.0.1:0");
    let listen = resolve_addr(listen_spec)?;
    let seed: u64 = opts
        .get("seed")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --seed: {e}"))?
        .unwrap_or(1);
    let mut policy = match opts.get("profile").unwrap_or("clean") {
        "clean" => ChaosPolicy::clean(),
        "mixed" => ChaosPolicy::mixed(),
        other => return Err(format!("bad --profile '{other}' (clean|mixed)")),
    };
    let pm = |key: &str, cur: u32| -> Result<u32, String> {
        match opts.get(key) {
            Some(v) => v.parse().map_err(|e| format!("bad --{key} '{v}': {e}")),
            None => Ok(cur),
        }
    };
    policy.refuse_per_mille = pm("refuse", policy.refuse_per_mille)?;
    policy.cut_request_per_mille = pm("cut-request", policy.cut_request_per_mille)?;
    policy.cut_response_per_mille = pm("cut-response", policy.cut_response_per_mille)?;
    let flip = pm("flip", 0)?;
    if opts.get("flip").is_some() {
        policy.flip_request_per_mille = flip;
        policy.flip_response_per_mille = flip;
    }
    policy.stall_per_mille = pm("stall", policy.stall_per_mille)?;
    if let Some(v) = opts.get("stall-max-ms") {
        policy.stall_max_ms = v
            .parse::<u64>()
            .map_err(|e| format!("bad --stall-max-ms '{v}': {e}"))?
            .max(1);
    }
    policy.chop_per_mille = pm("chop", policy.chop_per_mille)?;
    if let Some(v) = opts.get("chop-piece") {
        policy.chop_piece = v
            .parse::<usize>()
            .map_err(|e| format!("bad --chop-piece '{v}': {e}"))?
            .max(1);
    }
    if let Some(v) = opts.get("redraw-bytes") {
        policy.redraw_bytes = v
            .parse::<usize>()
            .map_err(|e| format!("bad --redraw-bytes '{v}': {e}"))?
            .max(1);
    }
    // Node-death profile: after this many relayed bytes the proxied
    // node dies (in-flight relays sever, later connections refused).
    if let Some(v) = opts.get("kill-after-bytes") {
        policy.kill_after_bytes = v
            .parse::<u64>()
            .map_err(|e| format!("bad --kill-after-bytes '{v}': {e}"))?;
    }
    let proxy =
        ChaosProxy::bind(listen, upstream, policy, seed).map_err(|e| format!("{listen}: {e}"))?;
    println!("chaos-proxy listening on {}", proxy.local_addr());
    eprintln!("  relaying to {upstream}, seed {seed}; stop by killing the process");
    let mut last_report = (0u64, 0u64);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        let s = proxy.stats();
        let now = (
            s.connections.load(std::sync::atomic::Ordering::Relaxed),
            s.faults_fired(),
        );
        if now != last_report {
            last_report = now;
            eprintln!(
                "  chaos: {} connection(s) ({} refused), {} request / {} response cut(s), {} bit flip(s), {} stall(s), {} chopped epoch(s)",
                now.0,
                s.refused.load(std::sync::atomic::Ordering::Relaxed),
                s.requests_cut.load(std::sync::atomic::Ordering::Relaxed),
                s.responses_cut.load(std::sync::atomic::Ordering::Relaxed),
                s.bits_flipped.load(std::sync::atomic::Ordering::Relaxed),
                s.stalls.load(std::sync::atomic::Ordering::Relaxed),
                s.chopped.load(std::sync::atomic::Ordering::Relaxed),
            );
        }
    }
}

fn resolve_addr(spec: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    spec.to_socket_addrs()
        .map_err(|e| format!("{spec}: {e}"))?
        .next()
        .ok_or_else(|| format!("{spec}: resolved to no address"))
}

/// Builds the retrying client every `remote <op>` talks through. Without
/// `--retries` the policy is single-attempt (`RetryPolicy::no_retry`),
/// so failures surface immediately; `--retries N` allows N extra
/// attempts with the default backoff schedule. `--deadline-ms` and
/// `--connect-timeout-ms` bound each call either way.
fn remote_client(opts: &Opts) -> Result<RetryingClient, String> {
    let addr = opts
        .get("s")
        .or_else(|| opts.get("server"))
        .unwrap_or(DEFAULT_ADDR);
    let mut policy = RetryPolicy::no_retry();
    if let Some(r) = opts.get("retries") {
        let extra: u32 = r.parse().map_err(|e| format!("bad --retries '{r}': {e}"))?;
        policy.max_attempts = extra.saturating_add(1);
    }
    if let Some(ms) = opt_ms(opts, "deadline-ms")? {
        policy.deadline = ms;
    }
    if let Some(ms) = opt_ms(opts, "connect-timeout-ms")? {
        policy.connect_timeout = ms;
    }
    if let Some(s) = opts.get("retry-seed") {
        policy.seed = s
            .parse()
            .map_err(|e| format!("bad --retry-seed '{s}': {e}"))?;
    }
    Ok(RetryingClient::new(addr, policy))
}

fn opt_ms(opts: &Opts, key: &str) -> Result<Option<std::time::Duration>, String> {
    opts.get(key)
        .map(|v| {
            v.parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|e| format!("bad --{key} '{v}': {e}"))
        })
        .transpose()
}

/// After a remote op, surface the client-side resilience counters on
/// stderr — but only when something nontrivial happened, so the clean
/// fast path stays quiet.
fn report_retries(client: &RetryingClient) {
    let s = client.stats();
    let noteworthy = s.retries.get() + s.reconnects.get() + s.hints_honored.get();
    if noteworthy > 0 || s.deadline_exceeded.get() > 0 {
        eprintln!(
            "remote: {} attempt(s) for {} call(s): {} retried, {} reconnect(s), {} backoff hint(s) honored, {} deadline exceeded",
            s.attempts.get(),
            s.calls.get(),
            s.retries.get(),
            s.reconnects.get(),
            s.hints_honored.get(),
            s.deadline_exceeded.get()
        );
    }
}

/// Builds the ring-aware client every `cluster <op>` talks through:
/// `--seeds` (or `-s`) names any live members, the ring is fetched from
/// the first that answers, and every shard op routes by rendezvous
/// placement with failover to survivors.
fn cluster_client(opts: &Opts) -> Result<ClusterClient, String> {
    let spec = opts
        .get("seeds")
        .or_else(|| opts.get("s"))
        .ok_or("cluster ops need --seeds <addr,addr,...> (any live members)")?;
    let seeds: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if seeds.is_empty() {
        return Err("--seeds named no addresses".into());
    }
    let mut conn = ConnectOptions::default();
    if let Some(ms) = opt_ms(opts, "connect-timeout-ms")? {
        conn.connect_timeout = ms;
    }
    ClusterClient::connect_any(&seeds, conn).map_err(|e| e.to_string())
}

/// After a cluster op, surface the client-side routing counters on
/// stderr when anything nontrivial happened (mirrors `report_retries`).
fn report_cluster(client: &ClusterClient) {
    let s = client.stats();
    let noteworthy = s.degraded_reads.get()
        + s.redirects_followed.get()
        + s.shard_failures.get()
        + s.scrub_repairs.get();
    if noteworthy > 0 {
        eprintln!(
            "cluster: {} degraded read(s), {} redirect(s) followed, {} ring refresh(es), {} shard failure(s), {} scrub repair(s)",
            s.degraded_reads.get(),
            s.redirects_followed.get(),
            s.ring_refreshes.get(),
            s.shard_failures.get(),
            s.scrub_repairs.get()
        );
    }
}

fn cmd_cluster(sub: &str, opts: &Opts) -> Result<ExitCode, String> {
    match sub {
        "put" => {
            let key = opts.require("k")?;
            let input = opts.require("i")?;
            let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
            let mut client = cluster_client(opts)?;
            let report = client.put(key, &bytes).map_err(|e| e.to_string())?;
            if report.fully_replicated() {
                eprintln!(
                    "stored '{key}' ({} bytes) on {}/{} nodes",
                    bytes.len(),
                    report.shards_stored,
                    report.total_shards
                );
            } else {
                eprintln!(
                    "stored '{key}' ({} bytes) UNDER-REPLICATED: {}/{} shards placed ({} failed); run `cuszp cluster-scrub` once the nodes return",
                    bytes.len(),
                    report.shards_stored,
                    report.total_shards,
                    report.failed.len()
                );
            }
            report_cluster(&client);
            Ok(ExitCode::SUCCESS)
        }
        "get" => {
            let key = opts.require("k")?;
            let output = opts.require("o")?;
            let mut client = cluster_client(opts)?;
            let got = client.get(key).map_err(|e| e.to_string())?;
            write_bytes(output, &got.bytes)?;
            eprintln!(
                "fetched '{key}' -> {output} ({} bytes{})",
                got.bytes.len(),
                if got.degraded {
                    ", reconstructed from parity"
                } else {
                    ""
                }
            );
            report_cluster(&client);
            Ok(ExitCode::SUCCESS)
        }
        "get-range" => {
            let key = opts.require("k")?;
            let output = opts.require("o")?;
            let spec = RangeSpec::parse(opts.require("range")?).map_err(|e| e.to_string())?;
            let mut client = cluster_client(opts)?;
            let got = client.get(key).map_err(|e| e.to_string())?;
            let degraded = got.degraded;
            let (out_bytes, dims) = match stored_dtype(&got.bytes) {
                Dtype::F32 => cuszp::decompress_range::<f32>(&got.bytes, &spec)
                    .map(|(data, dims)| (f32::le_bytes(&data), dims)),
                Dtype::F64 => cuszp::decompress_range::<f64>(&got.bytes, &spec)
                    .map(|(data, dims)| (f64::le_bytes(&data), dims)),
            }
            .map_err(|e| e.to_string())?;
            write_bytes(output, &out_bytes)?;
            eprintln!(
                "extracted {spec} of '{key}' -> {output} ({dims:?}, {} bytes{})",
                out_bytes.len(),
                if degraded {
                    ", reconstructed from parity"
                } else {
                    ""
                }
            );
            report_cluster(&client);
            Ok(ExitCode::SUCCESS)
        }
        "ring" => {
            let client = cluster_client(opts)?;
            let ring = client.ring();
            println!(
                "epoch {}: {} data + {} parity shards per stripe, {} member(s)",
                ring.epoch,
                ring.data_shards,
                ring.parity_shards,
                ring.nodes().len()
            );
            for n in ring.nodes() {
                println!("  node {:>4}  {}", n.id, n.addr);
            }
            Ok(ExitCode::SUCCESS)
        }
        "scrub" => {
            let mut client = cluster_client(opts)?;
            let report = client.scrub().map_err(|e| e.to_string())?;
            println!(
                "scrubbed {} key(s): {} shard(s) re-replicated, {} unrepairable, {} unreachable node(s)",
                report.keys, report.repaired, report.unrepairable, report.unreachable_nodes
            );
            report_cluster(&client);
            // Exit 0 when fully healthy, 1 when work remains (lost
            // stripes or members the pass could not see).
            if report.unrepairable > 0 || report.unreachable_nodes > 0 {
                Ok(ExitCode::FAILURE)
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        other => Err(format!(
            "unknown cluster operation '{other}' (put get get-range ring scrub)"
        )),
    }
}

fn cmd_remote(sub: &str, opts: &Opts) -> Result<ExitCode, String> {
    match sub {
        "compress" => remote_compress(opts).map(|()| ExitCode::SUCCESS),
        "decompress" => remote_decompress(opts).map(|()| ExitCode::SUCCESS),
        "get-range" => remote_get_range(opts).map(|()| ExitCode::SUCCESS),
        "scan" => remote_scan(opts),
        "info" => remote_info(opts).map(|()| ExitCode::SUCCESS),
        "stats" => remote_stats(opts).map(|()| ExitCode::SUCCESS),
        "ping" => {
            let mut client = remote_client(opts)?;
            let t0 = std::time::Instant::now();
            client.ping().map_err(|e| e.to_string())?;
            println!("pong ({:.1} ms)", t0.elapsed().as_secs_f64() * 1e3);
            Ok(ExitCode::SUCCESS)
        }
        // Cheap liveness probe: exit 0 while serving, 1 while draining,
        // so scripts can gate on readiness without parsing output.
        "health" => {
            let mut client = remote_client(opts)?;
            let h = client.health().map_err(|e| e.to_string())?;
            if h.draining {
                println!(
                    "draining: queue {}/{}, {} worker(s), {} active connection(s); retry after {} ms",
                    h.queue_depth, h.queue_capacity, h.workers, h.active_connections, h.retry_after_ms
                );
                Ok(ExitCode::FAILURE)
            } else {
                println!(
                    "healthy: queue {}/{}, {} worker(s), {} active connection(s)",
                    h.queue_depth, h.queue_capacity, h.workers, h.active_connections
                );
                Ok(ExitCode::SUCCESS)
            }
        }
        "shutdown" => {
            let mut client = remote_client(opts)?;
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown; draining");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown remote operation '{other}' (compress decompress get-range scan info stats ping health shutdown)"
        )),
    }
}

/// `remote compress`: ship the raw field; the server compresses through
/// its per-worker engine with the same chunked plan as a local
/// `compress --threads`, so the returned archive bytes are identical.
fn remote_compress(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let output = opts.require("o")?;
    let dims = parse_dims(opts.require("d")?)?;
    let config = parse_config(opts)?;
    let dtype = if opts.has_flag("double") {
        Dtype::F64
    } else {
        Dtype::F32
    };
    let parity = opts
        .get("parity")
        .map(ParityConfig::parse)
        .transpose()
        .map_err(|e| e.to_string())?;
    let chunk_target: u64 = opts
        .get("chunk")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --chunk: {e}"))?
        .unwrap_or(0);
    let data = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    if data.len() != dims.len() * dtype.bytes() {
        return Err(format!(
            "{input} holds {} bytes, dims say {} x {} bytes",
            data.len(),
            dims.len(),
            dtype.bytes()
        ));
    }
    let req = CompressRequest {
        dims,
        dtype,
        error_bound: config.error_bound,
        workflow: config.workflow,
        predictor: config.predictor,
        lossless: config.lossless,
        chunk_target,
        parity,
        data: &data,
    };
    let mut client = remote_client(opts)?;
    let t0 = std::time::Instant::now();
    let result = client.compress(&req);
    report_retries(&client);
    let archive = result.map_err(|e| e.to_string())?;
    write_bytes(output, &archive)?;
    eprintln!(
        "remote: wrote {} bytes to {output} in {:.2}s (ratio {:.2}x)",
        archive.len(),
        t0.elapsed().as_secs_f64(),
        data.len() as f64 / archive.len().max(1) as f64
    );
    Ok(())
}

/// `remote decompress`: ship the archive, write back the raw field. With
/// `--recover` the server decompresses fault-isolated and returns the
/// per-chunk report alongside the (filled) data.
fn remote_decompress(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let output = opts.require("o")?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let mode = if opts.has_flag("recover") {
        let fill = FillPolicy::parse(opts.get("fill").unwrap_or("nan"))
            .ok_or_else(|| format!("bad --fill '{}' (nan|zero)", opts.get("fill").unwrap_or("")))?;
        DecompressMode::Recover(fill)
    } else {
        DecompressMode::Strict
    };
    let mut client = remote_client(opts)?;
    let t0 = std::time::Instant::now();
    let result = client.decompress(&bytes, mode);
    report_retries(&client);
    let resp = result.map_err(|e| e.to_string())?;
    write_bytes(output, &resp.data)?;
    if let Some(report) = &resp.report {
        for c in report.chunks.iter().filter(|c| !c.status.is_recovered()) {
            eprintln!(
                "  chunk {}: {} (elements {}..{})",
                c.index, c.status, c.elem_range.start, c.elem_range.end
            );
        }
        eprintln!(
            "remote: recovered {}/{} chunks{}",
            report.chunks.len() - report.n_damaged(),
            report.chunks.len(),
            if report.n_repaired() > 0 {
                format!(" ({} healed from parity)", report.n_repaired())
            } else {
                String::new()
            }
        );
    }
    eprintln!(
        "remote: wrote {} bytes ({}, {:?}) to {output} in {:.2}s",
        resp.data.len(),
        resp.dtype.name(),
        resp.dims,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `remote get-range`: ship the archive, write back only the requested
/// sub-volume. Hot chunks are served from the server's slab cache; with
/// `--recover` the server reads around damage and reports the damaged
/// in-range chunks.
fn remote_get_range(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let output = opts.require("o")?;
    let spec = RangeSpec::parse(opts.require("range")?).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let mode = if opts.has_flag("recover") {
        let fill = FillPolicy::parse(opts.get("fill").unwrap_or("nan"))
            .ok_or_else(|| format!("bad --fill '{}' (nan|zero)", opts.get("fill").unwrap_or("")))?;
        DecompressMode::Recover(fill)
    } else {
        DecompressMode::Strict
    };
    let mut client = remote_client(opts)?;
    let t0 = std::time::Instant::now();
    let result = client.get_range(&bytes, &spec, mode);
    report_retries(&client);
    let resp = result.map_err(|e| e.to_string())?;
    write_bytes(output, &resp.data)?;
    if let Some(report) = &resp.report {
        for c in report.chunks.iter().filter(|c| !c.status.is_recovered()) {
            eprintln!(
                "  chunk {}: {} (elements {}..{})",
                c.index, c.status, c.elem_range.start, c.elem_range.end
            );
        }
        eprintln!(
            "remote: {}/{} in-range chunks ok{}",
            report.chunks.len() - report.n_damaged(),
            report.chunks.len(),
            if report.n_repaired() > 0 {
                format!(" ({} healed from parity)", report.n_repaired())
            } else {
                String::new()
            }
        );
    }
    eprintln!(
        "remote: extracted {spec} -> {output} ({}, {:?}, {} bytes) in {:.2}s",
        resp.dtype.name(),
        resp.dims,
        resp.data.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `remote scan`: fsck over the wire, same report shape and exit codes.
fn remote_scan(opts: &Opts) -> Result<ExitCode, String> {
    let input = opts.require("i")?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let mut client = remote_client(opts)?;
    let report = client.scan(&bytes).map_err(|e| e.to_string())?;
    let code = report.exit_code();
    if opts.has_flag("json") {
        println!(
            "{{\"archive\":\"{}\",{},\"exit_code\":{}}}",
            json_escape(input),
            report.to_json_fields(),
            code
        );
        return Ok(ExitCode::from(code));
    }
    println!("archive: {input} ({}, scanned remotely)", report.format);
    if let Some(dims) = report.dims {
        println!("  dims:   {dims:?} ({} elements)", dims.len());
    }
    if let Some(dtype) = report.dtype {
        println!("  dtype:  {}", dtype.name());
    }
    println!("  chunks: {} declared", report.declared_chunks);
    for c in &report.chunks {
        let loc = match &c.byte_range {
            Some(range) => format!("bytes {}..{}", range.start, range.end),
            None => "unlocatable".to_string(),
        };
        println!(
            "    [{}] {}  ({loc}, elements {}..{})",
            c.index, c.status, c.elem_range.start, c.elem_range.end
        );
    }
    match code {
        2 => println!(
            "  data loss: {} of {} chunk(s) unrecoverable",
            report.n_damaged(),
            report.chunks.len()
        ),
        1 => println!("  repairable: damage is covered by parity"),
        _ => println!(
            "  clean: all {} chunk(s) validated and decoded",
            report.chunks.len()
        ),
    }
    Ok(ExitCode::from(code))
}

fn remote_info(opts: &Opts) -> Result<(), String> {
    let input = opts.require("i")?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let mut client = remote_client(opts)?;
    let info = client.info(&bytes).map_err(|e| e.to_string())?;
    println!("archive: {input} ({}, described remotely)", info.format);
    println!("  dtype:        {}", info.dtype.name());
    println!(
        "  dims:         {:?} ({} elements)",
        info.dims,
        info.dims.len()
    );
    println!("  error bound:  {:.6e} (absolute)", info.eb);
    println!("  chunks:       {}", info.n_chunks);
    match info.parity {
        Some((k, m)) => println!("  parity:       {m}/{k}"),
        None => println!("  parity:       none"),
    }
    println!("  stored size:  {} bytes", info.stored_bytes);
    Ok(())
}

/// `remote stats`: the server's live metrics — per-op request counts,
/// error counts, bytes in/out, latency percentiles, plus the service
/// gauges (busy rejections, malformed frames, connections).
fn remote_stats(opts: &Opts) -> Result<(), String> {
    let mut client = remote_client(opts)?;
    let snap = client.server_stats().map_err(|e| e.to_string())?;
    println!(
        "{:<11} {:>9} {:>7} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "op", "requests", "errors", "bytes_in", "bytes_out", "p50_us", "p90_us", "p99_us", "max_us"
    );
    for o in &snap.ops {
        if o.requests == 0 {
            continue;
        }
        println!(
            "{:<11} {:>9} {:>7} {:>12} {:>12} {:>9.0} {:>9.0} {:>9.0} {:>9}",
            o.op.name(),
            o.requests,
            o.errors,
            o.bytes_in,
            o.bytes_out,
            o.latency.p50_us,
            o.latency.p90_us,
            o.latency.p99_us,
            o.latency.max_us
        );
    }
    println!(
        "total {} requests; {} busy / {} unavailable rejections, {} malformed frames, {} connections ({} active)",
        snap.total_requests(),
        snap.rejected_busy,
        snap.rejected_unavailable,
        snap.malformed_frames,
        snap.connections_total,
        snap.active_connections
    );
    // Guard the rate against a zero-op server: 0/0 must print as a
    // plain "n/a", never NaN.
    let lookups = snap.cache_hits + snap.cache_misses;
    let hit_rate = if lookups > 0 {
        format!(
            "{:.0}% hit rate",
            100.0 * snap.cache_hits as f64 / lookups as f64
        )
    } else {
        "hit rate n/a".to_string()
    };
    println!(
        "slab cache: {} hits / {} lookups ({hit_rate}), {} evictions",
        snap.cache_hits, lookups, snap.cache_evictions
    );
    if snap.redirects + snap.scrub_repairs + snap.corrupt_shards_dropped > 0 {
        println!(
            "cluster: {} redirect(s) answered, {} scrub repair(s) received, {} corrupt shard(s) dropped",
            snap.redirects, snap.scrub_repairs, snap.corrupt_shards_dropped
        );
    }
    Ok(())
}
