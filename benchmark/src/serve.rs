//! The service loop: an in-process 3-node cluster (2 data + 1 parity
//! shards) on loopback, each node on a durable `fsync=always` store, and
//! a closed-loop load generator of two client threads with one
//! connection per node each: a reader of seeded range slabs and a writer
//! of whole archives.

use crate::codec::{self, CodecSet};
use crate::fields::{Input, Rng};
use crate::trace::Tracer;
use crate::Tally;
use cuszp_core::RangeSpec;
use cuszp_parallel::{plan_chunks, WorkerPool};
use cuszp_server::{
    fnv1a, Client, ClusterClient, ClusterConfig, ConnectOptions, NodeInfo, Ring, Server,
    ServerConfig, ServerHandle, StoreBackendConfig,
};
use cuszp_store::{FsyncPolicy, LogStore, StoreConfig};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nodes in the cluster.
const NODES: usize = 3;
/// Data shards per stripe.
const DATA_SHARDS: usize = 2;
/// Parity shards per stripe.
const PARITY_SHARDS: usize = 1;
/// Distinct range slabs in a run's read schedule.
const SLABS: usize = 16;
/// Chunks per archive the service stores, so that a range read decodes
/// one of them rather than the whole field. At Small scale a chunk is
/// about an eighth of the codec loop's `DEFAULT_CHUNK_ELEMS`.
const SERVE_CHUNKS: usize = 8;
/// Distinct keys the writer cycles through (overwrites, so the stores
/// stay bounded by compaction).
const WRITE_KEYS: usize = 8;
/// Fewest reads and fewest puts, whatever the seconds say. 200 leaves
/// ten samples beyond the p95.
const MIN_OPS: u64 = 200;
/// Iterations of the direct store and erasure-code probes.
const PROBE_REPS: usize = 31;

/// Chunk target of a field's service archive.
fn serve_chunk_elems(input: &Input) -> usize {
    (input.data.len() / SERVE_CHUNKS).max(1)
}

fn opts() -> ConnectOptions {
    ConnectOptions {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
    }
}

/// A running cluster whose nodes keep their stores under one directory.
#[derive(Debug)]
pub struct Cluster {
    ring: Ring,
    handles: Vec<ServerHandle>,
    joins: Vec<JoinHandle<std::io::Result<()>>>,
    dir: PathBuf,
}

impl Cluster {
    /// Boots the nodes on free loopback ports with durable stores in
    /// `dir` (created, and removed again by [`Cluster::shutdown`]).
    pub fn boot(dir: &Path) -> Result<Cluster, String> {
        let holds: Vec<TcpListener> = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reserve port: {e}"))?;
        let nodes: Vec<NodeInfo> = holds
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let port = l.local_addr().map(|a| a.port()).unwrap_or(0);
                NodeInfo {
                    id: i as u64 + 1,
                    addr: format!("127.0.0.1:{port}"),
                }
            })
            .collect();
        drop(holds);
        let ring = Ring::new(1, DATA_SHARDS as u16, PARITY_SHARDS as u16, nodes)
            .map_err(|e| format!("ring: {e}"))?;
        let mut cluster = Cluster {
            ring: ring.clone(),
            handles: Vec::new(),
            joins: Vec::new(),
            dir: dir.to_path_buf(),
        };
        for node in ring.nodes() {
            let server = Server::bind_cluster(
                node.addr.as_str(),
                ServerConfig::default(),
                Some(ClusterConfig {
                    node_id: node.id,
                    ring: ring.clone(),
                    backend: StoreBackendConfig::Durable(StoreConfig::new(
                        dir.join(format!("node-{}", node.id)),
                    )),
                }),
            );
            let server = match server {
                Ok(s) => s,
                Err(e) => {
                    let _ = cluster.shutdown();
                    return Err(format!("bind node {}: {e}", node.id));
                }
            };
            cluster.handles.push(server.handle());
            cluster
                .joins
                .push(std::thread::spawn(move || server.serve()));
        }
        Ok(cluster)
    }

    /// A cluster client that opens its node connections lazily.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::with_ring(self.ring.clone(), opts())
    }

    /// `(requests, busy, shed)` summed over the nodes' `stats`. Opens a
    /// fresh connection per node, so call it only once the load
    /// generator's connections are closed.
    pub fn node_stats(&self) -> Result<(u64, u64, u64), String> {
        let mut sum = (0, 0, 0);
        for node in self.ring.nodes() {
            let mut c = Client::connect_with(node.addr.as_str(), &opts())
                .map_err(|e| format!("stats connect: {e}"))?;
            let s = c.stats().map_err(|e| format!("stats: {e}"))?;
            sum.0 += s.total_requests();
            sum.1 += s.rejected_busy;
            sum.2 += s.rejected_unavailable;
        }
        Ok(sum)
    }

    /// Stops every node, waits for each to exit and removes the stores.
    pub fn shutdown(self) -> Result<(), String> {
        for h in &self.handles {
            h.shutdown();
        }
        let mut result = Ok(());
        for j in self.joins {
            match j.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => result = Err(format!("node exited with {e}")),
                Err(_) => result = Err("node thread panicked".to_string()),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }
}

/// One scheduled range read and the fingerprint of its expected samples.
#[derive(Debug, Clone)]
struct Read {
    key: String,
    spec: RangeSpec,
    len: usize,
    fnv: u64,
}

/// A booted cluster holding the workload's archives, with warmed-up
/// reader and writer clients and the seeded read and write schedules.
#[derive(Debug)]
pub struct Service {
    cluster: Cluster,
    reader: ClusterClient,
    writer: ClusterClient,
    /// Archive bytes of each field, chunked for range reads.
    pub archives: Vec<Vec<u8>>,
    reads: Vec<Read>,
    writes: Vec<(String, usize)>,
}

impl Read {
    fn matches(&self, samples: &[f32]) -> bool {
        samples.len() == self.len && fingerprint(samples) == self.fnv
    }
}

fn fingerprint(samples: &[f32]) -> u64 {
    let bytes: Vec<u8> = samples.iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a(&bytes)
}

impl Service {
    /// Compresses every field of `set` into `SERVE_CHUNKS` chunks, boots
    /// the cluster in `dir`, puts the archives, draws the read and write
    /// schedules from `seed`, and warms up: both clients open a
    /// connection to every node and complete an operation on it, so
    /// connection set-up and the nodes' acceptor poll are paid here and
    /// not inside a timed operation.
    pub fn prepare(
        set: &CodecSet,
        pool: &WorkerPool,
        seed: u64,
        dir: &Path,
    ) -> Result<Service, String> {
        let comp = codec::compressor();
        let mut archives = Vec::new();
        let mut ebs = Vec::new();
        for input in &set.inputs {
            let arc = comp
                .compress_chunked_with(&input.data, input.dims, serve_chunk_elems(input), pool)
                .map_err(|e| format!("{}: compress: {e}", input.label))?;
            ebs.push(arc.eb);
            archives.push(arc.to_bytes());
        }
        let cluster = Cluster::boot(dir)?;
        let mut service = Service {
            reader: cluster.client(),
            writer: cluster.client(),
            cluster,
            archives,
            reads: Vec::new(),
            writes: Vec::new(),
        };
        match service.load(set, &ebs, seed) {
            Ok(()) => Ok(service),
            Err(e) => {
                let _ = service.shutdown();
                Err(e)
            }
        }
    }

    fn load(&mut self, set: &CodecSet, ebs: &[f64], seed: u64) -> Result<(), String> {
        // A put touches every node of the stripe, so after these puts
        // both clients hold an open, used connection to each node.
        for (i, bytes) in self.archives.iter().enumerate() {
            put_checked(&mut self.reader, &format!("r-{i}"), bytes)?;
        }
        put_checked(&mut self.writer, "w-warmup", &self.archives[0])?;
        self.writer
            .get("w-warmup")
            .map_err(|e| format!("warm-up get: {e}"))?;

        let mut rng = Rng::new(seed, 2);
        let n = self.archives.len();
        for i in 0..SLABS {
            let a = (i + seed as usize) % n;
            // A slab inside one seeded chunk: every read decodes exactly
            // one of the archive's chunks, so the seed moves where reads
            // land, not how much each one decodes.
            let dims = set.inputs[a].dims;
            let plan = plan_chunks(
                &[dims.slow_extent(), dims.elems_per_slow()],
                serve_chunk_elems(&set.inputs[a]),
            );
            let chunk = &plan.chunks[rng.below(plan.chunks.len())].slow;
            let len = (dims.slow_extent() / 8).clamp(1, chunk.len());
            let start = chunk.start + rng.below(chunk.len() - len + 1);
            let mut axes = Vec::with_capacity(dims.rank());
            axes.push(start..start + len);
            axes.extend(dims.extents()[3 - dims.rank() + 1..].iter().map(|&e| 0..e));
            let spec = RangeSpec::new(axes);
            let (samples, _) = cuszp_core::decompress_range(&self.archives[a], &spec)
                .map_err(|e| format!("local range read: {e}"))?;
            // The slab spans whole slow-axis units, so its samples are
            // contiguous in the row-major input.
            let per = dims.elems_per_slow();
            let orig = &set.inputs[a].data[start * per..(start + len) * per];
            if !codec::within_bound(orig, &samples, ebs[a]) {
                return Err(format!(
                    "{}: local range read breaks the error bound",
                    set.inputs[a].label
                ));
            }
            self.reads.push(Read {
                key: format!("r-{a}"),
                spec,
                len: samples.len(),
                fnv: fingerprint(&samples),
            });
        }
        let first = rng.below(n);
        self.writes = (0..n * WRITE_KEYS)
            .map(|j| (format!("w-{}", rng.below(WRITE_KEYS)), (first + j) % n))
            .collect();
        // The first scheduled read, untimed, on the reader's connections.
        let r = &self.reads[0];
        self.reader
            .get_range(&r.key, &r.spec)
            .map_err(|e| format!("warm-up range read: {e}"))?;
        Ok(())
    }

    /// Stops the cluster.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.reader);
        drop(self.writer);
        self.cluster.shutdown()
    }
}

fn put_checked(client: &mut ClusterClient, key: &str, bytes: &[u8]) -> Result<(), String> {
    let report = client
        .put(key, bytes)
        .map_err(|e| format!("put {key}: {e}"))?;
    if report.fully_replicated() {
        Ok(())
    } else {
        Err(format!("put {key}: under-replicated"))
    }
}

/// Samples and tallies of the service loop.
#[derive(Debug, Default)]
pub struct ServeResult {
    /// Latency of each range read, ms (untraced reads only when traced).
    pub read_ms: Vec<f64>,
    /// Latency of each put, ms.
    pub put_ms: Vec<f64>,
    /// Seconds the reader loop ran.
    pub reader_secs: f64,
    /// Seconds the writer loop ran.
    pub writer_secs: f64,
    /// Traced reads: the `ClusterClient::get` half, ms.
    pub get_ms: Vec<f64>,
    /// Traced reads: the `decompress_range` half, ms.
    pub range_decode_ms: Vec<f64>,
    /// Traced reads: whole read, ms.
    pub traced_read_ms: Vec<f64>,
    /// Range reads; fail on an error, a degraded read or wrong samples.
    pub reads: Tally,
    /// Puts; fail on an error or an under-replicated stripe.
    pub puts: Tally,
    /// Cluster counters that must stay zero: client-side degraded reads,
    /// redirects followed and shard failures, node-side busy and shed
    /// rejections. Each nonzero counter is a failure.
    pub counters: Tally,
    /// `(name, value)` of those counters plus the nodes' request count.
    pub counter_values: Vec<(&'static str, f64)>,
    /// Spans of the reader thread (traced runs).
    pub read_tracer: Option<Tracer>,
    /// Spans of the writer thread (traced runs).
    pub write_tracer: Option<Tracer>,
}

impl ServeResult {
    /// An empty result; with `epoch`, every other read is split into its
    /// two calls and every put is wrapped in a span.
    pub fn new(epoch: Option<Instant>) -> ServeResult {
        ServeResult {
            read_tracer: epoch.map(|e| Tracer::new(e, 1)),
            write_tracer: epoch.map(|e| Tracer::new(e, 2)),
            ..ServeResult::default()
        }
    }

    /// Reads completed per second of the reader loop.
    pub fn reads_per_s(&self) -> f64 {
        self.reads.attempted as f64 / self.reader_secs
    }

    /// Puts completed per second of the writer loop.
    pub fn puts_per_s(&self) -> f64 {
        self.puts.attempted as f64 / self.writer_secs
    }

    fn absorb(&mut self, o: ServeResult) {
        self.read_ms.extend(o.read_ms);
        self.put_ms.extend(o.put_ms);
        self.reader_secs += o.reader_secs;
        self.writer_secs += o.writer_secs;
        self.get_ms.extend(o.get_ms);
        self.range_decode_ms.extend(o.range_decode_ms);
        self.traced_read_ms.extend(o.traced_read_ms);
        for (into, from) in [(&mut self.reads, o.reads), (&mut self.puts, o.puts)] {
            into.attempted += from.attempted;
            into.failed += from.failed;
        }
    }
}

impl Service {
    /// Runs the reader and the writer concurrently until `seconds` have
    /// passed and each has completed `MIN_OPS` operations in all (or a
    /// hard stop at twice `seconds` plus half a minute).
    pub fn drive(&mut self, seconds: f64, acc: &mut ServeResult) -> Result<(), String> {
        let start = Instant::now();
        let soft = start + Duration::from_secs_f64(seconds);
        let hard = start + Duration::from_secs_f64(seconds * 2.0 + 30.0);
        let go = |done: u64| {
            let now = Instant::now();
            now < hard && (now < soft || done < MIN_OPS)
        };
        let (reads_before, puts_before) = (acc.reads.attempted, acc.puts.attempted);
        let Service {
            reader,
            writer,
            archives,
            reads,
            writes,
            ..
        } = self;
        let (read_tracer, write_tracer) = (&mut acc.read_tracer, &mut acc.write_tracer);

        let joined = std::thread::scope(|s| {
            let reader_thread = s.spawn(|| {
                let mut out = ServeResult::default();
                let t0 = Instant::now();
                let mut i = reads_before as usize;
                while go(reads_before + out.reads.attempted) {
                    let r = &reads[i % reads.len()];
                    let ok = match read_tracer.as_mut().filter(|_| i % 2 == 1) {
                        None => {
                            let t = Instant::now();
                            let got = reader.get_range(&r.key, &r.spec);
                            out.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if let (Err(e), true) = (&got, out.reads.failed < 3) {
                                eprintln!("range read {i}: {e}");
                            }
                            matches!(got, Ok((v, _, false)) if r.matches(&v))
                        }
                        Some(tr) => traced_read(tr, i as u64, reader, r, &mut out),
                    };
                    out.reads.record(ok);
                    i += 1;
                }
                out.reader_secs = t0.elapsed().as_secs_f64();
                out
            });
            let writer_thread = s.spawn(|| {
                let mut out = ServeResult::default();
                let t0 = Instant::now();
                let mut j = puts_before as usize;
                while go(puts_before + out.puts.attempted) {
                    let (key, a) = &writes[j % writes.len()];
                    let bytes = &archives[*a];
                    let t = Instant::now();
                    let got = match write_tracer.as_mut() {
                        None => writer.put(key, bytes),
                        Some(tr) => {
                            tr.time("server.cluster_put", 0, j as u64, || writer.put(key, bytes))
                                .0
                        }
                    };
                    out.put_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if let (Err(e), true) = (&got, out.puts.failed < 3) {
                        eprintln!("put {j}: {e}");
                    }
                    out.puts
                        .record(matches!(got, Ok(r) if r.fully_replicated()));
                    j += 1;
                }
                out.writer_secs = t0.elapsed().as_secs_f64();
                out
            });
            (reader_thread.join(), writer_thread.join())
        });
        let (Ok(r), Ok(w)) = joined else {
            return Err("load generator thread panicked".to_string());
        };
        acc.absorb(r);
        acc.absorb(w);
        Ok(())
    }

    /// Checks the cluster counters, reads the nodes' stats and stops the
    /// cluster.
    pub fn finish(self, acc: &mut ServeResult) -> Result<(), String> {
        let Service {
            cluster,
            reader,
            writer,
            ..
        } = self;
        let client_counters = [
            (
                "cluster.degraded_reads",
                reader.stats().degraded_reads.get() + writer.stats().degraded_reads.get(),
            ),
            (
                "cluster.redirects_followed",
                reader.stats().redirects_followed.get() + writer.stats().redirects_followed.get(),
            ),
            (
                "cluster.shard_failures",
                reader.stats().shard_failures.get() + writer.stats().shard_failures.get(),
            ),
        ];
        // The nodes' workers serve one connection each: close the load
        // generator's before asking every node for its stats.
        drop(reader);
        drop(writer);
        let node = cluster.node_stats();
        let stopped = cluster.shutdown();
        let (requests, busy, shed) = node?;
        stopped?;
        for (name, v) in client_counters
            .into_iter()
            .chain([("server.busy", busy), ("server.shed", shed)])
        {
            acc.counters.record(v == 0);
            acc.counter_values.push((name, v as f64));
        }
        acc.counter_values
            .push(("server.requests", requests as f64));
        Ok(())
    }
}

/// One read split at its two calls, `ClusterClient::get` (shard fetch
/// over CSRP, assembly, checksum) and the local `decompress_range`.
fn traced_read(
    tr: &mut Tracer,
    op: u64,
    reader: &mut ClusterClient,
    r: &Read,
    out: &mut ServeResult,
) -> bool {
    let root = tr.reserve();
    let t = tr.now_ns();
    let (got, g) = tr.time("server.cluster_get", root, op, || reader.get(&r.key));
    let ok = match got {
        Ok(got) if !got.degraded => {
            let (v, d) = tr.time("core.range_decode", root, op, || {
                cuszp_core::decompress_range(&got.bytes, &r.spec)
            });
            out.get_ms.push(g);
            out.range_decode_ms.push(d);
            matches!(v, Ok((v, _)) if r.matches(&v))
        }
        _ => false,
    };
    tr.record("bench.range_read", root, 0, op, t);
    out.traced_read_ms
        .push(tr.spans().last().map_or(0.0, |s| s.ms()));
    ok
}

/// Medians of the direct store and erasure-code probes.
#[derive(Debug, Default)]
pub struct ProbeResult {
    /// `LogStore::put` with fsync off, ms.
    pub store_put_ms: Vec<f64>,
    /// `LogStore::sync` after that put, ms.
    pub store_sync_ms: Vec<f64>,
    /// `LogStore::get` of that shard, ms.
    pub store_get_ms: Vec<f64>,
    /// `ReedSolomon::encode` of one stripe, ms.
    pub ecc_encode_ms: Vec<f64>,
    /// Bytes one stripe encode reads and writes.
    pub ecc_stripe_bytes: usize,
}

/// Times the store and the erasure code directly, on the stripe of
/// `archive` as a cluster put would cut it: put, sync and get one data
/// shard in a fresh `LogStore` under `dir`, and encode the parity.
pub fn probe(archive: &[u8], dir: &Path) -> Result<ProbeResult, String> {
    let shard_size = archive.len().div_ceil(DATA_SHARDS);
    let data: Vec<Vec<u8>> = (0..DATA_SHARDS)
        .map(|i| {
            let lo = (i * shard_size).min(archive.len());
            let hi = ((i + 1) * shard_size).min(archive.len());
            let mut s = archive[lo..hi].to_vec();
            s.resize(shard_size, 0);
            s
        })
        .collect();
    let mut res = ProbeResult {
        ecc_stripe_bytes: shard_size * (DATA_SHARDS + PARITY_SHARDS),
        ..ProbeResult::default()
    };
    let rs =
        cuszp_ecc::ReedSolomon::new(DATA_SHARDS, PARITY_SHARDS).map_err(|e| format!("ecc: {e}"))?;
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let parity = rs
            .encode(&refs, shard_size)
            .map_err(|e| format!("ecc: {e}"))?;
        res.ecc_encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(parity);
    }

    let store_dir = dir.join("store-probe");
    let mut store = LogStore::open(StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(&store_dir)
    })
    .map_err(|e| format!("store probe: {e}"))?;
    let fnv = fnv1a(archive);
    let result: Result<bool, cuszp_store::StoreError> = (|| {
        for i in 0..PROBE_REPS {
            let key = format!("p-{}", i % WRITE_KEYS);
            let t = Instant::now();
            store.put(&key, 0, &data[0], archive.len() as u64, fnv, false)?;
            res.store_put_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            store.sync()?;
            res.store_sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let got = store.get(&key, 0)?;
            res.store_get_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if got.is_none_or(|g| g.bytes != data[0]) {
                return Ok(false);
            }
        }
        Ok(true)
    })();
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    match result {
        Ok(true) => Ok(res),
        Ok(false) => Err("store probe read back different bytes".to_string()),
        Err(e) => Err(format!("store probe: {e}")),
    }
}
