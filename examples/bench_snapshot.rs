//! Performance snapshot: per-workflow compress/decompress throughput plus
//! loopback service round-trip latency, emitted as JSON on stdout.
//!
//! ```sh
//! cargo run --release --example bench_snapshot > BENCH_<n>.json
//! ```
//!
//! `scripts/bench_snapshot.sh` wraps this so the checked-in `BENCH_*.json`
//! series accumulates one point per PR and the perf trajectory stays
//! visible in review diffs.

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::parallel::WorkerPool;
use cuszp::server::{
    Client, ClusterClient, ClusterConfig, CompressRequest, ConnectOptions, DecompressMode,
    NodeInfo, Ring, Server, ServerConfig,
};
use cuszp::{
    Compressor, Config, Dtype, ErrorBound, LosslessMode, Predictor, PredictorMode, RangeSpec,
    WorkflowChoice, WorkflowMode,
};
use std::time::Instant;

const EB: f64 = 1e-3;
const REPS: usize = 3;
const PINGS: usize = 100;

fn main() {
    let spec = dataset_fields(DatasetKind::CesmAtm)[0];
    let field = generate(&spec, Scale::Small);
    let mb = field.bytes() as f64 / (1024.0 * 1024.0);

    println!("{{");
    println!(
        "  \"field\": \"{}/{}\",",
        DatasetKind::CesmAtm.name(),
        spec.name
    );
    println!("  \"dims\": \"{:?}\",", field.dims);
    println!("  \"bytes\": {},", field.bytes());
    println!("  \"error_bound\": \"rel {EB:e}\",");
    println!("  \"workflows\": [");

    let workflows: [(&str, WorkflowMode); 4] = [
        ("auto", WorkflowMode::Auto),
        ("huffman", WorkflowMode::Force(WorkflowChoice::Huffman)),
        ("rle", WorkflowMode::Force(WorkflowChoice::Rle)),
        ("rle+vle", WorkflowMode::Force(WorkflowChoice::RleVle)),
    ];
    for (i, (name, workflow)) in workflows.iter().enumerate() {
        let compressor = Compressor::new(Config {
            error_bound: ErrorBound::Relative(EB),
            workflow: *workflow,
            ..Config::default()
        });
        // Best-of-REPS so one scheduler hiccup does not pollute the series.
        let mut t_comp = f64::MAX;
        let mut t_decomp = f64::MAX;
        let mut bytes = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let archive = compressor.compress(&field.data, field.dims).unwrap();
            t_comp = t_comp.min(t0.elapsed().as_secs_f64());
            bytes = archive.to_bytes();
            let t0 = Instant::now();
            let (recon, _) = cuszp::decompress::<f32>(&bytes).unwrap();
            t_decomp = t_decomp.min(t0.elapsed().as_secs_f64());
            assert_eq!(recon.len(), field.data.len());
        }
        println!(
            "    {{\"workflow\": \"{name}\", \"compress_mb_s\": {:.1}, \"decompress_mb_s\": {:.1}, \"ratio\": {:.2}}}{}",
            mb / t_comp,
            mb / t_decomp,
            field.bytes() as f64 / bytes.len() as f64,
            if i + 1 < workflows.len() { "," } else { "" }
        );
    }
    println!("  ],");
    println!("  \"plans\": [");

    // Per-plan throughput: the codec-plan axes (predictor × lossless)
    // at the adaptive workflow, on the same field as above.
    let plans: [(&str, PredictorMode, LosslessMode); 4] = [
        ("auto", PredictorMode::Auto, LosslessMode::Auto),
        (
            "lorenzo",
            PredictorMode::Force(Predictor::Lorenzo),
            LosslessMode::Off,
        ),
        (
            "interpolation",
            PredictorMode::Force(Predictor::Interpolation),
            LosslessMode::Off,
        ),
        (
            "lorenzo+lz77",
            PredictorMode::Force(Predictor::Lorenzo),
            LosslessMode::Auto,
        ),
    ];
    for (i, (name, predictor, lossless)) in plans.iter().enumerate() {
        let compressor = Compressor::new(Config {
            error_bound: ErrorBound::Relative(EB),
            predictor: *predictor,
            lossless: *lossless,
            ..Config::default()
        });
        let mut t_comp = f64::MAX;
        let mut t_decomp = f64::MAX;
        let mut bytes = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let archive = compressor.compress(&field.data, field.dims).unwrap();
            t_comp = t_comp.min(t0.elapsed().as_secs_f64());
            bytes = archive.to_bytes();
            let t0 = Instant::now();
            let (recon, _) = cuszp::decompress::<f32>(&bytes).unwrap();
            t_decomp = t_decomp.min(t0.elapsed().as_secs_f64());
            assert_eq!(recon.len(), field.data.len());
        }
        println!(
            "    {{\"plan\": \"{name}\", \"compress_mb_s\": {:.1}, \"decompress_mb_s\": {:.1}, \"ratio\": {:.2}}}{}",
            mb / t_comp,
            mb / t_decomp,
            field.bytes() as f64 / bytes.len() as f64,
            if i + 1 < plans.len() { "," } else { "" }
        );
    }
    println!("  ],");

    // Loopback service latency: a local server on an ephemeral port, one
    // persistent connection, pings for the floor and one heavy round trip
    // each for compress/decompress.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(addr.to_string()).unwrap();

    let mut ping_us: Vec<f64> = (0..PINGS)
        .map(|_| {
            let t0 = Instant::now();
            client.ping().unwrap();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ping_us.sort_by(|a, b| a.total_cmp(b));

    let raw: Vec<u8> = field.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let req = CompressRequest {
        dims: field.dims,
        dtype: Dtype::F32,
        error_bound: ErrorBound::Relative(EB),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Auto,
        lossless: LosslessMode::Off,
        chunk_target: 0,
        parity: None,
        data: &raw,
    };
    let t0 = Instant::now();
    let served = client.compress(&req).unwrap();
    let compress_rt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let resp = client.decompress(&served, DecompressMode::Strict).unwrap();
    let decompress_rt_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resp.data.len(), raw.len());
    client.shutdown_server().unwrap();
    drop(client);
    handle.join().unwrap().unwrap();

    println!("  \"loopback\": {{");
    println!(
        "    \"ping_p50_us\": {:.0}, \"ping_p99_us\": {:.0},",
        ping_us[PINGS / 2],
        ping_us[PINGS * 99 / 100]
    );
    println!(
        "    \"compress_roundtrip_ms\": {compress_rt_ms:.1}, \"decompress_roundtrip_ms\": {decompress_rt_ms:.1}"
    );
    println!("  }},");

    // Clustered range reads: the same field sharded 2+1 across three
    // in-process cluster nodes, a mid-field slab read healthy and then
    // with a data-shard owner dead (reconstructing from parity). Both
    // paths must return identical samples; the row records the cost of
    // the degraded rebuild.
    let archive = Compressor::new(Config {
        error_bound: ErrorBound::Relative(EB),
        ..Config::default()
    })
    .compress_chunked_with(
        &field.data,
        field.dims,
        cuszp::parallel::DEFAULT_CHUNK_ELEMS,
        &WorkerPool::new(2),
    )
    .unwrap()
    .to_bytes();
    let holds: Vec<std::net::TcpListener> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let nodes: Vec<NodeInfo> = holds
        .iter()
        .enumerate()
        .map(|(i, l)| NodeInfo {
            id: i as u64 + 1,
            addr: l.local_addr().unwrap().to_string(),
        })
        .collect();
    let ring = Ring::new(1, 2, 1, nodes.clone()).unwrap();
    drop(holds);
    let mut cluster_joins = Vec::new();
    let mut node_handles = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let server = Server::bind_cluster(
            n.addr.clone(),
            ServerConfig::default(),
            Some(ClusterConfig {
                node_id: i as u64 + 1,
                ring: ring.clone(),
                backend: cuszp::server::StoreBackendConfig::Memory,
            }),
        )
        .unwrap();
        node_handles.push(server.handle());
        cluster_joins.push(std::thread::spawn(move || server.serve()));
    }
    let mut cc = ClusterClient::with_ring(ring.clone(), ConnectOptions::default());
    cc.put("bench", &archive).unwrap();
    let (ny, nx) = match field.dims {
        cuszp::Dims::D2 { ny, nx } => (ny, nx),
        _ => unreachable!("the bench field is 2-D"),
    };
    let spec = RangeSpec::new(vec![ny / 4..3 * ny / 4, nx / 4..3 * nx / 4]);
    let mut healthy_ms = f64::MAX;
    let mut healthy_samples = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (samples, _, degraded) = cc.get_range("bench", &spec).unwrap();
        healthy_ms = healthy_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(!degraded);
        healthy_samples = samples;
    }
    // Kill the owner of data slot 0 so the degraded path must rebuild.
    let victim_id = ring.shard_owner("bench", 0).unwrap().id;
    node_handles[victim_id as usize - 1].shutdown();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut degraded_ms = f64::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (samples, _, degraded) = cc.get_range("bench", &spec).unwrap();
        degraded_ms = degraded_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(degraded);
        assert_eq!(samples, healthy_samples);
    }
    for n in &nodes {
        if let Ok(mut c) = Client::connect(n.addr.as_str()) {
            let _ = c.shutdown_server();
        }
    }
    for j in cluster_joins {
        j.join().unwrap().unwrap();
    }
    println!("  \"cluster\": {{");
    println!("    \"nodes\": 3, \"data_shards\": 2, \"parity_shards\": 1,");
    println!(
        "    \"get_range_healthy_ms\": {healthy_ms:.1}, \"get_range_degraded_ms\": {degraded_ms:.1}, \"degraded_bit_identical\": true"
    );
    println!("  }},");

    // Shard-store engine latency: one 64 KiB shard put/get through each
    // backend behind the `ShardBackend` trait. `fsync always` is the
    // kill -9 durability contract (every put pays an fsync); `never`
    // shows the raw log-append cost; memory is the baseline.
    let shard: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let shard_fnv = cuszp::metrics::fnv1a(&shard);
    let store_ops = 64usize;
    let bench_dir = std::env::temp_dir().join(format!("cuszp-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bench_dir);
    let durable = |tag: &str, fsync: cuszp::store::FsyncPolicy| {
        cuszp::server::StoreBackendConfig::Durable(cuszp::store::StoreConfig {
            dir: bench_dir.join(tag),
            fsync,
            compact_at: 256 * 1024 * 1024,
        })
    };
    let store_rows = [
        ("memory", cuszp::server::StoreBackendConfig::Memory),
        (
            "durable fsync=always",
            durable("always", cuszp::store::FsyncPolicy::Always),
        ),
        (
            "durable fsync=never",
            durable("never", cuszp::store::FsyncPolicy::Never),
        ),
    ];
    println!("  \"shard_store\": [");
    for (i, (name, cfg)) in store_rows.iter().enumerate() {
        let mut store = cfg.open().unwrap();
        let t0 = Instant::now();
        for op in 0..store_ops {
            store
                .put(
                    &format!("bench-{op}"),
                    0,
                    &shard,
                    shard.len() as u64,
                    shard_fnv,
                    false,
                )
                .unwrap();
        }
        let put_us = t0.elapsed().as_secs_f64() * 1e6 / store_ops as f64;
        let t0 = Instant::now();
        for op in 0..store_ops {
            let got = store.get(&format!("bench-{op}"), 0).unwrap().unwrap();
            assert_eq!(got.bytes.len(), shard.len());
        }
        let get_us = t0.elapsed().as_secs_f64() * 1e6 / store_ops as f64;
        println!(
            "    {{\"backend\": \"{name}\", \"shard_kib\": 64, \"put_us\": {put_us:.0}, \"get_us\": {get_us:.0}}}{}",
            if i + 1 < store_rows.len() { "," } else { "" }
        );
    }
    let _ = std::fs::remove_dir_all(&bench_dir);
    println!("  ]");
    println!("}}");
}
