//! Every call the benchmark makes into the program's layers.
//!
//! The rest of the benchmark reaches `cure-storage`, `cure-core`,
//! `cure-query` and `cure-serve` only through this module, so a refactor
//! of one entry point edits one call site here and leaves what is
//! measured alone. The entry points are the ones the program keeps for
//! serving: the worker/merger build driver, the durable ingest pipeline,
//! the mmap read path, the hardened `query_with_options`, and the socket
//! shard router. Each call is wrapped in a [`trace::span`], which records
//! nothing unless the run is traced.

use std::path::Path;
use std::sync::Arc;

use cure_core::{
    BuildReport, CubeConfig, CubeMeta, CubeSchema, DiskSink, IngestOptions, IngestReport, NodeId,
    ShardBuildReport, Tuples,
};
use cure_query::{CacheConfig, CubeRow, ReadPath};
use cure_serve::{
    CubeService, QueryOptions, QueryReply, RemoteShardBackend, RemoteShardConfig, ServeError,
    ServeMetrics, ShardBackend, ShardRouter, ShardServer, ShardServerConfig, WireTotals,
};
use cure_storage::{Catalog, StorageCounters};

use crate::trace;
use crate::{Context as _, Result};

/// The fact relation every workload stores and builds from.
pub const FACT_REL: &str = "facts";
const CUBE_PREFIX: &str = "cube_";
const PART_PREFIX: &str = "cube_tmp_";

/// Open (creating if needed) the catalog in `dir`.
pub fn open_catalog(dir: &Path) -> Result<Arc<Catalog>> {
    Catalog::open(dir).map(Arc::new).context("open catalog")
}

/// The catalog's cumulative storage counters.
pub fn storage_counters(catalog: &Catalog) -> StorageCounters {
    catalog.stats().snapshot()
}

/// Store `facts` as the fact relation, durably; returns its data bytes.
pub fn store_facts(catalog: &Catalog, facts: &Tuples) -> Result<u64> {
    trace::span(
        "storage.store",
        None,
        || -> Result<u64> {
            let schema = Tuples::fact_schema(facts.n_dims(), facts.n_measures());
            let mut heap = catalog.create_or_replace(FACT_REL, schema).context("create facts")?;
            facts.store_fact(&mut heap).context("store facts")?;
            heap.sync().context("sync facts")?;
            Ok(heap.data_bytes())
        },
        |_| facts.len() as u64,
    )
}

/// Build the cube over the fact relation with the parallel worker/merger
/// driver under `cfg`, and record its metadata so it can be ingested
/// into and served.
pub fn build(
    catalog: &Catalog,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    threads: usize,
) -> Result<BuildReport> {
    trace::span(
        "core.build",
        None,
        || -> Result<BuildReport> {
            let mut sink = DiskSink::new(catalog, CUBE_PREFIX, schema, false, false, None)
                .context("open cube sink")?;
            let report = cure_core::build_cure_cube_parallel(
                catalog,
                FACT_REL,
                schema,
                cfg,
                &mut sink,
                PART_PREFIX,
                threads,
            )
            .context("build cube")?;
            CubeMeta {
                prefix: CUBE_PREFIX.into(),
                fact_rel: FACT_REL.into(),
                n_dims: schema.num_dims(),
                n_measures: schema.num_measures(),
                dr: false,
                plus: false,
                cat_format: report.stats.cat_format,
                partition_level: report.partition.as_ref().map(|p| p.choice.level),
                min_support: cfg.min_support,
            }
            .write(catalog)
            .context("write cube meta")?;
            Ok(report)
        },
        |r| r.as_ref().map_or(0, |r| r.stats.total_tuples()),
    )
}

/// Ingest `delta` into the active cube (append, merge, swap, drop the
/// old cube).
pub fn ingest(
    catalog: &Catalog,
    schema: &CubeSchema,
    delta: &Tuples,
    cfg: &CubeConfig,
) -> Result<IngestReport> {
    trace::span(
        "core.ingest",
        None,
        || {
            cure_core::ingest_cube(catalog, schema, delta, cfg, &IngestOptions { drop_old: true })
                .context("ingest delta")
        },
        |_| delta.len() as u64,
    )
}

/// Logical bytes of the active cube's relations.
pub fn cube_bytes(catalog: &Catalog) -> Result<u64> {
    catalog.data_bytes_with_prefix(&cure_core::active_prefix(catalog)).context("cube bytes")
}

/// Open the active cube for serving on the mmap read path.
pub fn open_service(catalog: &Arc<Catalog>, schema: &Arc<CubeSchema>) -> Result<CubeService> {
    let prefix = cure_core::active_prefix(catalog);
    trace::span(
        "query.open",
        None,
        || {
            CubeService::open_with_read_path(
                Arc::clone(catalog),
                Arc::clone(schema),
                &prefix,
                CacheConfig::default(),
                ReadPath::Mmap,
            )
            .context("open service")
        },
        |_| 0,
    )
}

/// One in-process query through the hardened entry point, no deadline.
pub fn query(
    service: &CubeService,
    node: NodeId,
    request: u64,
) -> std::result::Result<QueryReply, ServeError> {
    trace::span(
        "serve.query",
        Some(request),
        || service.query_with_options(node, &QueryOptions::default()),
        |r| r.as_ref().map_or(0, |r| r.rows.len() as u64),
    )
}

/// Zero a service's serving metrics and query counters.
pub fn reset_query_counters(service: &CubeService) {
    service.metrics().reset();
    service.cube().reset_stats();
}

/// Build `shards` sub-cubes over the fact relation (round-robin split).
pub fn build_shards(
    catalog: &Catalog,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    shards: usize,
    threads: usize,
) -> Result<ShardBuildReport> {
    trace::span(
        "core.shard_build",
        None,
        || {
            cure_core::build_shard_cubes(catalog, FACT_REL, schema, cfg, shards, threads)
                .context("build shard cubes")
        },
        |r| r.as_ref().map_or(0, |r| r.rows_per_shard.iter().sum()),
    )
}

/// Serve shard `shard` of the sharded catalog in `dir` on an ephemeral
/// loopback port, on the mmap read path. Runs inside a shard process.
pub fn serve_shard(dir: &Path, shard: usize) -> Result<ShardServer> {
    let catalog = open_catalog(dir)?;
    let schema = cure_core::read_schema_blob(&catalog)
        .context("read schema blob")?
        .ok_or_else(|| format!("{} has no schema blob", dir.display()))?;
    let service = CubeService::open_with_read_path(
        Arc::clone(&catalog),
        Arc::new(schema),
        &cure_core::shard_cube_prefix(shard),
        CacheConfig::default(),
        ReadPath::Mmap,
    )
    .context("open shard service")?;
    ShardServer::spawn(service, shard as u32, "127.0.0.1:0", ShardServerConfig::default())
        .context("bind shard server")
}

/// Dial a shard server.
pub fn connect_shard(endpoint: &str) -> Result<RemoteShardBackend> {
    RemoteShardBackend::connect(endpoint, RemoteShardConfig::default())
        .context(&format!("connect to shard at {endpoint}"))
}

/// A router over one replica per shard. Traced runs wrap each backend in
/// [`TracedShard`] so every per-shard sub-query gets its own span; the
/// untraced run hands the router the plain backends.
pub fn router(schema: &Arc<CubeSchema>, shards: &[RemoteShardBackend]) -> Result<ShardRouter> {
    let backends: Vec<Vec<Arc<dyn ShardBackend>>> = shards
        .iter()
        .map(|b| -> Vec<Arc<dyn ShardBackend>> {
            if trace::enabled() {
                vec![Arc::new(TracedShard(b.clone()))]
            } else {
                vec![Arc::new(b.clone())]
            }
        })
        .collect();
    ShardRouter::from_backends(Arc::clone(schema), backends, ReadPath::Mmap).context("router")
}

/// One scatter-gather query through the router, no deadline.
pub fn route(
    router: &ShardRouter,
    node: NodeId,
    request: u64,
) -> std::result::Result<QueryReply, ServeError> {
    trace::span(
        "serve.route",
        Some(request),
        || router.query_with_options(node, &QueryOptions::default()),
        |r| r.as_ref().map_or(0, |r| r.rows.len() as u64),
    )
}

/// Socket counters summed over the router's backends, and failovers.
pub fn router_counters(router: &ShardRouter) -> (WireTotals, u64) {
    let failovers = router.shard_stats().iter().map(|s| s.failovers).sum();
    (router.wire_totals(), failovers)
}

/// A remote shard whose sub-queries are each recorded as a
/// `serve.subquery` span (encode, round trip, server time, decode).
struct TracedShard(RemoteShardBackend);

fn rows_of(r: &std::result::Result<Vec<CubeRow>, ServeError>) -> u64 {
    r.as_ref().map_or(0, |rows| rows.len() as u64)
}

impl ShardBackend for TracedShard {
    fn query_with_options(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        trace::span("serve.subquery", None, || self.0.query_with_options(node, opts), rows_of)
    }

    fn query_plain(&self, node: NodeId) -> std::result::Result<Vec<CubeRow>, ServeError> {
        trace::span("serve.subquery", None, || self.0.query_plain(node), rows_of)
    }

    fn num_nodes(&self) -> NodeId {
        self.0.num_nodes()
    }

    fn metrics(&self) -> &Arc<ServeMetrics> {
        self.0.metrics()
    }

    fn reset_counters(&self) {
        self.0.reset_counters()
    }

    fn wire_totals(&self) -> WireTotals {
        self.0.wire_totals()
    }

    fn describe(&self) -> String {
        format!("traced {}", self.0.describe())
    }
}
