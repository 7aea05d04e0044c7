//! One benchmark run: generate, deploy, verify, measure, report.
//!
//! Every workload deploys the stack the same way — store the facts,
//! build the cube, ingest a 1% delta, open the in-process service on the
//! mmap path — so every run builds, ingests, opens and serves, and
//! `setup_s` is the median deployment time. The workloads differ in what
//! is then timed:
//!
//! * `build_ingest`: refresh cycles, each a deployment followed by a
//!   burst of point queries, each cycle's cube checked on every node;
//! * `serve_point` / `serve_scan`: the in-process service under a closed
//!   loop over small / large nodes, after [`Options::setups`]
//!   deployments;
//! * `serve_socket`: the small nodes through the shard router to one
//!   server process per shard, whose start is part of each deployment.
//!
//! A traced run of the other workloads then also builds shard sub-cubes,
//! starts their server processes and sweeps every node through the
//! router, so the router, wire and net layers are measured on every
//! workload.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cure_core::{BuildReport, CubeConfig, CubeSchema, IngestReport, NodeCoder, NodeId, Tuples};
use cure_serve::{AttributionTotals, CubeService, ShardRouter, WireTotals};
use cure_storage::{Catalog, StorageCounters, PAGE_SIZE};

use crate::layers;
use crate::load::{closed_loop, median, Call, Chunk, ErrorCounts, LoopResult, Mix, Stop, CHUNK};
use crate::metrics::{self, Metric};
use crate::oracle::Oracle;
use crate::procs::ShardProcs;
use crate::{host, trace, Result};

/// APB-1 scale divisor: 10,327 facts, a ~260 k-row cube, 168 nodes.
pub const SCALE: u64 = 480;
/// APB-1 density.
pub const DENSITY: f64 = 0.4;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Build and shard-build worker threads.
pub const BUILD_THREADS: usize = 2;
/// Shards (one server process each) behind the socket router.
pub const SHARDS: usize = 2;
/// Delta size, in per-mille of the facts.
const DELTA_PERMILLE: usize = 10;
/// Entries of a query mix.
const MIX_LEN: usize = 16_384;
/// Fewest answers a serve loop times.
const LOOP_ANSWERS: u64 = 8_000;
/// Fewest point answers timed after each refresh of `build_ingest`.
const BURST_ANSWERS: u64 = 4_000;
/// Fewest refresh cycles per `build_ingest` measurement.
const MIN_CYCLES: usize = 3;
/// Untimed warm-up before a serve loop.
const WARMUP: Duration = Duration::from_secs(1);

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build and ingest; serving idle.
    BuildIngest,
    /// In-process service, small nodes.
    ServePoint,
    /// In-process service, large nodes.
    ServeScan,
    /// Shard router over server processes, small nodes.
    ServeSocket,
}

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in its order.
    pub const LISTED: [Workload; 2] = [Workload::BuildIngest, Workload::ServePoint];

    /// Every workload: the listed ones, and `serve_scan` and
    /// `serve_socket`, which run on request but whose tail latency on a
    /// shared host is too unsteady to hold a PR to.
    pub const ALL: [Workload; 4] =
        [Workload::BuildIngest, Workload::ServePoint, Workload::ServeScan, Workload::ServeSocket];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildIngest => "build_ingest",
            Workload::ServePoint => "serve_point",
            Workload::ServeScan => "serve_scan",
            Workload::ServeSocket => "serve_socket",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the facts, the delta and the query mixes.
    pub seed: u64,
    /// Shortest measuring time.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// APB-1 scale divisor.
    pub scale: u64,
    /// Deployments before a serve loop (`build_ingest` deploys until
    /// `seconds` of refresh time have passed).
    pub setups: usize,
    /// Extra opens of the last deployment's cube (restarts of its shard
    /// servers for `serve_socket`), for `open_s`.
    pub opens: usize,
    /// Executable started in `shard-server` mode for shard processes.
    pub server_exe: PathBuf,
    /// Scratch directory for catalogs; removed afterwards.
    pub work_dir: PathBuf,
    /// Directory the traced run writes its spans to.
    pub out_dir: PathBuf,
    /// Alter one expected answer (proves the correctness gate fires).
    pub tamper: bool,
}

impl Options {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: SCALE,
            setups: 8,
            opens: 30,
            server_exe: PathBuf::new(),
            work_dir: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
            out_dir: PathBuf::from(".bench_out"),
            tamper: false,
        }
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// No answer failed or differed from the oracle.
    pub correct: bool,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// `(metric, value)` in table order.
    pub metrics: Vec<(Metric, f64)>,
    /// Host and run facts recorded beside the metrics.
    pub record: BTreeMap<&'static str, String>,
}

/// Generated inputs.
struct Data {
    schema: Arc<CubeSchema>,
    facts: Tuples,
    delta: Tuples,
}

fn generate(scale: u64, seed: u64) -> Data {
    let base = cure_data::apb::apb1_dense(DENSITY, scale, seed);
    let more = cure_data::apb::apb1_dense(DENSITY, scale, seed ^ 0xDE17A);
    let n = (base.tuples.len() * DELTA_PERMILLE / 1000).max(1);
    let (d, y) = (base.schema.num_dims(), base.schema.num_measures());
    let mut delta = Tuples::with_capacity(d, y, n);
    for i in 0..n {
        delta.push_fact(more.tuples.dims_of(i), more.tuples.aggs_of(i), i as u64);
    }
    Data { schema: Arc::new(base.schema), facts: base.tuples, delta }
}

/// Facts followed by the delta, row ids continuing: what the served
/// cube must answer for.
fn facts_plus_delta(data: &Data) -> Tuples {
    let (f, dl) = (&data.facts, &data.delta);
    let mut all = Tuples::with_capacity(f.n_dims(), f.n_measures(), f.len() + dl.len());
    for (t, base) in [(f, 0), (dl, f.len())] {
        for i in 0..t.len() {
            all.push_fact(t.dims_of(i), t.aggs_of(i), (base + i) as u64);
        }
    }
    all
}

/// A memory budget a quarter of the facts' size, so the §4 partitioner
/// splits the build.
fn build_config(data: &Data) -> CubeConfig {
    let (d, y) = (data.schema.num_dims(), data.schema.num_measures());
    let fact_bytes = data.facts.len() * Tuples::tuple_bytes(d, y);
    CubeConfig { memory_budget_bytes: (fact_bytes / 4).max(1), ..CubeConfig::default() }
}

/// Rows `node` is expected to hold over `facts` uniformly drawn facts:
/// the distinct cells hit, `C·(1 − (1 − 1/C)^facts)` for `C` cells.
fn expected_rows(schema: &CubeSchema, coder: &NodeCoder, node: NodeId, facts: usize) -> f64 {
    let levels = coder.decode(node).expect("dense node ids decode");
    let cells: f64 = (0..schema.num_dims())
        .filter(|&d| !coder.is_all(&levels, d))
        .map(|d| f64::from(schema.dims()[d].cardinality(levels[d])))
        .product();
    cells * (1.0 - (1.0 - 1.0 / cells).powf(facts as f64))
}

/// Seeded query mixes: `point` over the half of the nodes with the
/// fewest expected rows, `scan` over the quarter with the most, each
/// rounded up to an odd count so the median falls inside one node's
/// answers rather than between two. Ranking by expectation rather than
/// by the drawn data keeps both sets the same for every seed.
fn node_mixes(schema: &CubeSchema, facts: usize, seed: u64) -> (Mix, Mix) {
    let coder = NodeCoder::new(schema);
    let mut ranked: Vec<(f64, NodeId)> =
        coder.all_ids().map(|id| (expected_rows(schema, &coder, id, facts), id)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let ids: Vec<NodeId> = ranked.into_iter().map(|(_, id)| id).collect();
    let n = ids.len();
    (
        Mix::seeded(&ids[..(n / 2) | 1], MIX_LEN, seed ^ 0x901),
        Mix::seeded(&ids[n - ((n / 4) | 1)..], MIX_LEN, seed ^ 0x5CA),
    )
}

/// Storage counter movement between two snapshots.
fn io_diff(after: StorageCounters, before: StorageCounters) -> StorageCounters {
    StorageCounters {
        pages_read: after.pages_read - before.pages_read,
        pages_written: after.pages_written - before.pages_written,
        fsyncs: after.fsyncs - before.fsyncs,
        write_retries: after.write_retries - before.write_retries,
        read_retries: after.read_retries - before.read_retries,
        checksum_verifications: after.checksum_verifications - before.checksum_verifications,
        checksum_failures: after.checksum_failures - before.checksum_failures,
        sort_runs: after.sort_runs - before.sort_runs,
        sort_spill_bytes: after.sort_spill_bytes - before.sort_spill_bytes,
    }
}

/// Everything one measurement pass records.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    ingest_s: Vec<f64>,
    /// In-process opens, each followed by its first answer.
    open_s: Vec<f64>,
    /// Shard processes started, connected, and first routed answer.
    spawn_s: Vec<f64>,
    /// Peak resident set of this process and of the shard servers behind
    /// the timed work, at its end.
    peak_rss_kib: u64,
    store_s: Vec<f64>,
    shard_build_s: Vec<f64>,
    cube_ratio: Vec<f64>,
    builds: Vec<(BuildReport, StorageCounters, u64)>,
    ingests: Vec<(IngestReport, StorageCounters, f64)>,
    open_io: Vec<StorageCounters>,
    serve_io: StorageCounters,
    attribution: AttributionTotals,
    queries: u64,
    rows: u64,
    fact_fetches: u64,
    agg_fetches: u64,
    wire: WireTotals,
    failovers: u64,
    /// Checked operations and their failures.
    checked: u64,
    failed: u64,
    errors: ErrorCounts,
    /// Timed correct answers.
    answers: u64,
    /// Latency quantiles of the timed answers, by chunk.
    chunks: Vec<Chunk>,
    /// Wall time of the timed loops, in ns.
    timed_ns: u64,
    /// Trace-clock windows of the timed loops.
    windows: Vec<(u64, u64)>,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn absorb(&mut self, r: &LoopResult) {
        self.checked += r.attempted();
        self.failed += r.failed();
        self.errors.add(&r.errors);
    }

    fn absorb_timed(&mut self, r: &LoopResult) {
        self.absorb(r);
        self.answers += r.answers;
        self.chunks.extend_from_slice(&r.chunks);
        self.timed_ns += r.window.1 - r.window.0;
        self.windows.push(r.window);
    }

    /// Fold in a service's counters, taken since they were last reset.
    fn harvest(&mut self, service: &CubeService) {
        let a = service.metrics().attribution();
        self.attribution.samples += a.samples;
        self.attribution.probe_ns += a.probe_ns;
        self.attribution.read_ns += a.read_ns;
        self.attribution.compute_ns += a.compute_ns;
        let q = service.cube().stats_snapshot();
        self.queries += q.queries;
        self.rows += q.rows;
        self.fact_fetches += q.fact_fetches;
        self.agg_fetches += q.agg_fetches;
    }
}

/// Shared, read-only run inputs.
struct Ctx<'a> {
    opts: &'a Options,
    oracle: Oracle,
    point: Mix,
    scan: Mix,
}

impl Ctx<'_> {
    fn mix(&self) -> &Mix {
        match self.opts.workload {
            Workload::ServeScan => &self.scan,
            _ => &self.point,
        }
    }

    /// Check one answer, counting failures by class.
    fn check_reply(
        &self,
        t: &mut Tally,
        node: NodeId,
        r: std::result::Result<cure_serve::QueryReply, cure_serve::ServeError>,
    ) {
        match r {
            Ok(reply) => t.check(self.oracle.matches(node, &reply.rows)),
            Err(e) => {
                t.errors.count(&e);
                t.check(false);
            }
        }
    }
}

/// Open the in-process service and take its first answer; returns the
/// service and the time that took.
fn open_and_answer(
    ctx: &Ctx<'_>,
    t: &mut Tally,
    catalog: &Arc<Catalog>,
    schema: &Arc<CubeSchema>,
) -> Result<(CubeService, f64)> {
    let io0 = layers::storage_counters(catalog);
    let s = Instant::now();
    let service = layers::open_service(catalog, schema)?;
    let node = ctx.mix().order[0];
    let first = layers::query(&service, node, trace::next_request());
    let open_s = s.elapsed().as_secs_f64();
    t.open_io.push(io_diff(layers::storage_counters(catalog), io0));
    t.open_s.push(open_s);
    ctx.check_reply(t, node, first);
    Ok((service, open_s))
}

/// Shard processes behind a socket router.
struct Sockets {
    router: ShardRouter,
    procs: ShardProcs,
}

impl Sockets {
    /// Start one server process per shard of the sharded catalog in
    /// `dir`, dial them, and take the router's first answer; the time that
    /// takes is one `spawn_s` sample.
    fn start(
        ctx: &Ctx<'_>,
        t: &mut Tally,
        dir: &Path,
        schema: &Arc<CubeSchema>,
    ) -> Result<Sockets> {
        let s = Instant::now();
        let mut procs = ShardProcs::default();
        let mut remotes = Vec::with_capacity(SHARDS);
        for k in 0..SHARDS {
            let endpoint = procs.spawn(&ctx.opts.server_exe, dir, k)?;
            remotes.push(layers::connect_shard(&endpoint)?);
        }
        let router = layers::router(schema, &remotes)?;
        let node = ctx.mix().order[0];
        let first = layers::route(&router, node, trace::next_request());
        t.spawn_s.push(s.elapsed().as_secs_f64());
        ctx.check_reply(t, node, first);
        Ok(Sockets { router, procs })
    }

    /// Every node, through the router.
    fn verify(&self, ctx: &Ctx<'_>, t: &mut Tally) {
        for node in 0..ctx.oracle.num_nodes() as NodeId {
            ctx.check_reply(t, node, layers::route(&self.router, node, trace::next_request()));
        }
    }

    /// Fold the router's counters in, then kill and reap the servers.
    fn stop(mut self, t: &mut Tally) {
        let (wire, failovers) = layers::router_counters(&self.router);
        t.wire.bytes_in += wire.bytes_in;
        t.wire.bytes_out += wire.bytes_out;
        t.wire.reconnects += wire.reconnects;
        t.wire.timeouts += wire.timeouts;
        t.failovers += failovers;
        self.procs.stop();
    }
}

/// The stack, deployed once: generated facts stored, the cube built and
/// a delta ingested into it, the in-process service open; for
/// `serve_socket` (and, after the timed work, in traced runs) also shard
/// sub-cubes served by their own processes behind a router.
struct Deployment {
    dir: PathBuf,
    catalog: Arc<Catalog>,
    schema: Arc<CubeSchema>,
    cfg: CubeConfig,
    service: CubeService,
    sockets: Option<Sockets>,
    serve_io0: StorageCounters,
    /// Build, ingest and open time of this deployment.
    refresh_s: f64,
}

impl Deployment {
    /// Deploy into a fresh `dir`; the time it takes is one `setup_s`
    /// sample.
    fn create(ctx: &Ctx<'_>, t: &mut Tally, dir: PathBuf) -> Result<Deployment> {
        host::flush_file_systems();
        let clock = Instant::now();
        let data = generate(ctx.opts.scale, ctx.opts.seed);
        let catalog = layers::open_catalog(&dir)?;
        let s = Instant::now();
        let fact_bytes = layers::store_facts(&catalog, &data.facts)?;
        t.store_s.push(s.elapsed().as_secs_f64());
        let cfg = build_config(&data);
        let mut setup_s = clock.elapsed().as_secs_f64();

        host::flush_file_systems();
        let io0 = layers::storage_counters(&catalog);
        let s = Instant::now();
        let report = layers::build(&catalog, &data.schema, &cfg, BUILD_THREADS)?;
        let build_s = s.elapsed().as_secs_f64();
        let io1 = layers::storage_counters(&catalog);
        match &report.partition {
            Some(p) if p.choice.num_partitions >= 2 => {}
            _ => return Err("the memory budget did not make the build partition".into()),
        }
        t.cube_ratio.push(layers::cube_bytes(&catalog)? as f64 / fact_bytes as f64);
        t.builds.push((report, io_diff(io1, io0), fact_bytes));

        host::flush_file_systems();
        let io0 = layers::storage_counters(&catalog);
        let s = Instant::now();
        let ingest = layers::ingest(&catalog, &data.schema, &data.delta, &cfg)?;
        let ingest_s = s.elapsed().as_secs_f64();
        t.ingests.push((ingest, io_diff(layers::storage_counters(&catalog), io0), ingest_s));

        let (service, open_s) = open_and_answer(ctx, t, &catalog, &data.schema)?;
        t.build_s.push(build_s);
        t.ingest_s.push(ingest_s);
        setup_s += build_s + ingest_s + open_s;
        let serve_io0 = layers::storage_counters(&catalog);
        let mut d = Deployment {
            dir,
            catalog,
            schema: data.schema,
            cfg,
            service,
            sockets: None,
            serve_io0,
            refresh_s: build_s + ingest_s + open_s,
        };
        if ctx.opts.workload == Workload::ServeSocket {
            let s = Instant::now();
            d.build_shards(t)?;
            d.sockets = Some(Sockets::start(ctx, t, &d.dir, &d.schema)?);
            setup_s += s.elapsed().as_secs_f64();
        }
        t.setup_s.push(setup_s);
        Ok(d)
    }

    /// Build the shard sub-cubes beside the cube.
    fn build_shards(&self, t: &mut Tally) -> Result<()> {
        host::flush_file_systems();
        let s = Instant::now();
        layers::build_shards(&self.catalog, &self.schema, &self.cfg, SHARDS, BUILD_THREADS)?;
        t.shard_build_s.push(s.elapsed().as_secs_f64());
        Ok(())
    }

    /// Stop the shard servers, if any, and start them afresh.
    fn restart_sockets(&mut self, ctx: &Ctx<'_>, t: &mut Tally) -> Result<()> {
        if let Some(old) = self.sockets.take() {
            old.stop(t);
        }
        self.sockets = Some(Sockets::start(ctx, t, &self.dir, &self.schema)?);
        Ok(())
    }

    /// Every node, through the in-process service.
    fn verify(&self, ctx: &Ctx<'_>, t: &mut Tally) {
        for node in 0..ctx.oracle.num_nodes() as NodeId {
            ctx.check_reply(t, node, layers::query(&self.service, node, trace::next_request()));
        }
    }

    fn teardown(self, t: &mut Tally) {
        if let Some(s) = self.sockets {
            s.stop(t);
        }
        let io = io_diff(layers::storage_counters(&self.catalog), self.serve_io0);
        t.serve_io.read_retries += io.read_retries;
        t.serve_io.checksum_failures += io.checksum_failures;
        drop(self.service);
        drop(self.catalog);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One measurement pass (tracing as currently set).
fn measure(ctx: &Ctx<'_>) -> Result<Tally> {
    let opts = ctx.opts;
    let mut t = Tally::default();
    let mut current: Option<Deployment> = None;
    let mut deployed = 0;
    let mut timed = 0.0;
    // Deploy `setups` times; `build_ingest` keeps refreshing until its
    // build, ingest, open and burst time reaches `seconds`.
    loop {
        let enough = match opts.workload {
            Workload::BuildIngest => deployed >= MIN_CYCLES && timed >= opts.seconds,
            _ => deployed >= opts.setups.max(1),
        };
        if enough {
            break;
        }
        if let Some(d) = current.take() {
            d.teardown(&mut t);
        }
        let dir = opts.work_dir.join(format!("deploy{deployed}"));
        let d = Deployment::create(ctx, &mut t, dir)?;
        if opts.workload == Workload::BuildIngest {
            // The sweep checks the ingested cube and warms the burst's
            // pages, which would otherwise put first-touch faults in p99.
            d.verify(ctx, &mut t);
            let call = |node, req| layers::query(&d.service, node, req);
            let burst = Stop {
                min: Duration::ZERO,
                min_samples: BURST_ANSWERS,
                max: Duration::from_secs(60),
            };
            layers::reset_query_counters(&d.service);
            let s = Instant::now();
            let burst = closed_loop(CLIENTS, &ctx.point, burst, &ctx.oracle, &call);
            timed += d.refresh_s + s.elapsed().as_secs_f64();
            t.absorb_timed(&burst);
            t.harvest(&d.service);
        }
        current = Some(d);
        deployed += 1;
    }
    let mut dep = current.take().ok_or("no deployment")?;
    for _ in 0..opts.opens {
        if opts.workload == Workload::ServeSocket {
            dep.restart_sockets(ctx, &mut t)?;
        } else {
            open_and_answer(ctx, &mut t, &dep.catalog, &dep.schema)?;
        }
    }
    match (opts.workload, &dep.sockets) {
        (Workload::BuildIngest, _) => {}
        (Workload::ServeSocket, Some(sockets)) => {
            sockets.verify(ctx, &mut t);
            let call = |node, req| layers::route(&sockets.router, node, req);
            serve_loop(ctx, &mut t, &call, None);
        }
        (Workload::ServeSocket, None) => return Err("no shard servers to measure".into()),
        _ => {
            dep.verify(ctx, &mut t);
            let call = |node, req| layers::query(&dep.service, node, req);
            serve_loop(ctx, &mut t, &call, Some(&dep.service));
        }
    }
    let servers_kib = dep.sockets.as_ref().map_or(0, |s| s.procs.peak_rss_kib());
    t.peak_rss_kib = host::vm_hwm_kib() + servers_kib;
    if trace::enabled() && dep.sockets.is_none() {
        // Reach the router, wire and net layers on every workload, after
        // the timed work so the server processes cannot disturb it.
        dep.build_shards(&mut t)?;
        dep.restart_sockets(ctx, &mut t)?;
        if let Some(s) = &dep.sockets {
            s.verify(ctx, &mut t);
        }
    }
    dep.teardown(&mut t);
    // Leave no write-back of this pass to whatever runs next.
    host::flush_file_systems();
    Ok(t)
}

/// Untimed warm-up, then the timed closed loop. The counters of the
/// in-process `service` the loop calls, if any, are taken over the timed
/// loop alone.
fn serve_loop(ctx: &Ctx<'_>, t: &mut Tally, call: &Call<'_>, service: Option<&CubeService>) {
    host::flush_file_systems();
    let mix = ctx.mix();
    let warm = Stop { min: WARMUP, min_samples: 0, max: WARMUP };
    let warm = closed_loop(CLIENTS, mix, warm, &ctx.oracle, call);
    t.absorb(&warm);
    let min = Duration::from_secs_f64(ctx.opts.seconds);
    let stop = Stop { min, min_samples: LOOP_ANSWERS, max: min * 2 };
    if let Some(service) = service {
        layers::reset_query_counters(service);
    }
    let timed = closed_loop(CLIENTS, mix, stop, &ctx.oracle, call);
    t.absorb_timed(&timed);
    if let Some(service) = service {
        t.harvest(service);
    }
}

/// End-to-end metrics of one pass. Throughput is over every timed answer
/// of the pass, latency quantiles are medians over its chunks; `open_s`
/// is the in-process open, or for `serve_socket` the start of the shard
/// servers.
fn end_to_end(t: &Tally, workload: Workload) -> Result<BTreeMap<&'static str, f64>> {
    if t.chunks.is_empty() {
        return Err(format!("only {} correct answers were timed; p99 needs {CHUNK}", t.answers));
    }
    let chunk_median = |f: fn(&Chunk) -> u64| {
        median(&t.chunks.iter().map(|c| f(c) as f64 / 1e6).collect::<Vec<_>>())
    };
    let open_s = if workload == Workload::ServeSocket { &t.spawn_s } else { &t.open_s };
    Ok(BTreeMap::from([
        ("setup_s", median(&t.setup_s)),
        ("cube_bytes_per_fact_byte", median(&t.cube_ratio)),
        ("qps", t.answers as f64 / (t.timed_ns as f64 / 1e9)),
        ("p50_ms", chunk_median(|c| c.p50_ns)),
        ("p99_ms", chunk_median(|c| c.p99_ns)),
        ("open_s", median(open_s)),
        ("peak_rss_mb", t.peak_rss_kib as f64 / 1024.0),
    ]))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the traced pass `t`, from its reports, counters
/// and spans.
fn per_layer(t: &Tally, spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
    let b = |f: &dyn Fn(&BuildReport) -> f64| -> f64 {
        median(&t.builds.iter().map(|(r, _, _)| f(r)).collect::<Vec<_>>())
    };
    let bio = |f: &dyn Fn(&StorageCounters, u64) -> f64| -> f64 {
        median(&t.builds.iter().map(|(_, io, fb)| f(io, *fb)).collect::<Vec<_>>())
    };
    let ing = |f: &dyn Fn(&IngestReport, &StorageCounters, f64) -> f64| -> f64 {
        median(&t.ingests.iter().map(|(r, io, s)| f(r, io, *s)).collect::<Vec<_>>())
    };

    // Span durations by name, and per-route child sub-query time. The
    // in-process query spans are those of the timed loops, the population
    // the service's counters were taken over.
    let timed = |s: &trace::Span| t.windows.iter().any(|&(a, b)| a <= s.start_ns && s.end_ns <= b);
    let mut by_name: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name != "serve.query" || timed(s)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.rows;
        if s.name == "serve.subquery" {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let count = |n: &str| by_name.get(n).map_or(0, |e| e.0) as f64;
    let mean_us = |n: &str| by_name.get(n).map_or(0.0, |e| ratio(e.1 as f64, e.0 as f64) / 1e3);
    let rows = |n: &str| by_name.get(n).map_or(0, |e| e.2) as f64;
    let routes = count("serve.route");
    let router_self_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "serve.route")
        .map(|s| s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)))
        .sum();

    let a = &t.attribution;
    let per_sample_us = |ns: u64| ratio(ns as f64, a.samples as f64) / 1e3;
    let attributed_us = per_sample_us(a.probe_ns + a.read_ns + a.compute_ns);

    BTreeMap::from([
        ("core.build_s", median(&t.build_s)),
        ("core.ingest_s", median(&t.ingest_s)),
        ("core.partition_s", b(&|r| r.phases.partition_secs)),
        ("core.pass_cpu_s", b(&|r| r.phases.pass_secs)),
        ("core.sort_cpu_s", b(&|r| r.phases.sort_secs)),
        ("core.flush_s", b(&|r| r.phases.flush_secs)),
        ("core.merge_s", b(&|r| r.phases.merge_secs)),
        (
            "core.partitions",
            b(&|r| r.partition.as_ref().map_or(1, |p| p.choice.num_partitions) as f64),
        ),
        ("core.counting_sorts", b(&|r| r.counting_sorts as f64)),
        ("core.comparison_sorts", b(&|r| r.comparison_sorts as f64)),
        ("core.signatures", b(&|r| r.signatures as f64)),
        ("core.pool_flushes", b(&|r| r.pool_flushes as f64)),
        ("core.tt_rows", b(&|r| r.stats.tt_tuples as f64)),
        ("core.nt_rows", b(&|r| r.stats.nt_tuples as f64)),
        ("core.cat_rows", b(&|r| r.stats.cat_tuples as f64)),
        ("core.ingest_append_s", ing(&|r, _, _| r.append_secs)),
        ("core.ingest_merge_s", ing(&|r, _, _| r.merge_secs)),
        ("core.ingest_swap_gc_s", ing(&|r, _, s| (s - r.append_secs - r.merge_secs).max(0.0))),
        ("core.ingest_carried_groups", ing(&|r, _, _| r.update.carried_groups as f64)),
        ("core.ingest_merged_groups", ing(&|r, _, _| r.update.merged_groups as f64)),
        ("core.ingest_new_groups", ing(&|r, _, _| r.update.new_groups as f64)),
        ("core.ingest_tt_demotions", ing(&|r, _, _| r.update.tt_demotions as f64)),
        (
            "core.ingest_carried_per_delta_row",
            ing(&|r, _, _| ratio(r.update.carried_groups as f64, r.delta_rows as f64)),
        ),
        ("core.shard_build_s", median(&t.shard_build_s)),
        ("storage.store_s", median(&t.store_s)),
        ("storage.build_pages_written", bio(&|io, _| io.pages_written as f64)),
        ("storage.build_fsyncs", bio(&|io, _| io.fsyncs as f64)),
        ("storage.build_pages_read", bio(&|io, _| io.pages_read as f64)),
        ("storage.build_sort_spill_bytes", bio(&|io, _| io.sort_spill_bytes as f64)),
        (
            "storage.build_bytes_written_per_fact_byte",
            bio(&|io, fb| ratio((io.pages_written * PAGE_SIZE as u64) as f64, fb as f64)),
        ),
        ("storage.ingest_pages_written", ing(&|_, io, _| io.pages_written as f64)),
        ("storage.ingest_fsyncs", ing(&|_, io, _| io.fsyncs as f64)),
        ("storage.ingest_pages_read", ing(&|_, io, _| io.pages_read as f64)),
        (
            "storage.open_checksum_verifications",
            median(
                &t.open_io.iter().map(|io| io.checksum_verifications as f64).collect::<Vec<_>>(),
            ),
        ),
        ("storage.serve_read_retries", t.serve_io.read_retries as f64),
        ("storage.serve_checksum_failures", t.serve_io.checksum_failures as f64),
        ("query.probe_us", per_sample_us(a.probe_ns)),
        ("query.read_us", per_sample_us(a.read_ns)),
        ("query.compute_us", per_sample_us(a.compute_ns)),
        ("query.attr_samples", a.samples as f64),
        ("query.rows_per_query", ratio(t.rows as f64, t.queries as f64)),
        ("query.fact_fetches_per_row", ratio(t.fact_fetches as f64, t.rows as f64)),
        ("query.agg_fetches_per_row", ratio(t.agg_fetches as f64, t.rows as f64)),
        ("query.open_s", median(&t.open_s)),
        ("serve.query_us", mean_us("serve.query")),
        ("serve.self_us", mean_us("serve.query") - attributed_us),
        ("serve.errors.timeout", t.errors.timeout as f64),
        ("serve.errors.overloaded", t.errors.overloaded as f64),
        ("serve.errors.degraded", t.errors.degraded as f64),
        ("serve.errors.corrupt", t.errors.corrupt as f64),
        ("serve.errors.query", t.errors.query as f64),
        ("serve.spawn_s", median(&t.spawn_s)),
        ("serve.router_us", mean_us("serve.route")),
        ("serve.subquery_us", mean_us("serve.subquery")),
        ("serve.router_self_us", ratio(router_self_ns as f64, routes) / 1e3),
        ("serve.subqueries_per_query", ratio(count("serve.subquery"), routes)),
        ("serve.partial_rows_per_row", ratio(rows("serve.subquery"), rows("serve.route"))),
        ("serve.wire_bytes_in_per_query", ratio(t.wire.bytes_in as f64, routes)),
        ("serve.wire_bytes_out_per_query", ratio(t.wire.bytes_out as f64, routes)),
        ("serve.wire_reconnects", t.wire.reconnects as f64),
        ("serve.wire_timeouts", t.wire.timeouts as f64),
        ("serve.failovers", t.failovers as f64),
    ])
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Result<Outcome> {
    if CLIENTS > host::nproc() {
        return Err(format!(
            "{CLIENTS} client threads need {CLIENTS} CPUs; this host has {}",
            host::nproc()
        ));
    }
    let data = generate(opts.scale, opts.seed);
    let served = facts_plus_delta(&data);
    let (point, scan) = node_mixes(&data.schema, served.len(), opts.seed);
    let tamper = opts.tamper.then(|| match opts.workload {
        Workload::ServeScan => scan.order[0],
        _ => point.order[0],
    });
    let oracle = Oracle::compute(&data.schema, &served, tamper);
    let ctx = Ctx { opts, oracle, point, scan };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let _cleanup = WorkDir(&opts.work_dir);

    trace::set_enabled(false);
    let ticks0 = host::cpu_ticks();
    let mut tally = measure(&ctx)?;
    let ticks1 = host::cpu_ticks();
    let e2e = end_to_end(&tally, opts.workload)?;
    let mut record = BTreeMap::new();
    let values: BTreeMap<&'static str, f64> = if opts.trace {
        trace::take();
        trace::set_enabled(true);
        let traced = measure(&ctx);
        trace::set_enabled(false);
        let spans = trace::take();
        let t = traced?;
        let e2e_traced = end_to_end(&t, opts.workload)?;
        let mut out = per_layer(&t, &spans);
        for m in metrics::END_TO_END {
            out.insert(trace_delta_name(m.name), e2e_traced[m.name] - e2e[m.name]);
        }
        let path = opts.out_dir.join(format!("spans-{}.jsonl", opts.workload.name()));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("write spans: {e}"))?;
        record.insert("spans", format!("{} ({} spans)", path.display(), spans.len()));
        tally.checked += t.checked;
        tally.failed += t.failed;
        out
    } else {
        e2e
    };

    let table = if opts.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let metrics = table
        .iter()
        .map(|m| {
            values.get(m.name).map(|v| (*m, *v)).ok_or(format!("metric {} not measured", m.name))
        })
        .collect::<Result<Vec<_>>>()?;
    let (attempted, failed) = (tally.checked, tally.failed);
    record.insert("workload", opts.workload.name().into());
    record.insert("seed", opts.seed.to_string());
    record.insert("scale", opts.scale.to_string());
    record.insert("facts", data.facts.len().to_string());
    record.insert("delta", data.delta.len().to_string());
    record.insert("nodes", ctx.oracle.num_nodes().to_string());
    record.insert("clients", CLIENTS.to_string());
    record.insert("timed_samples", tally.answers.to_string());
    record.insert("timed_chunks", tally.chunks.len().to_string());
    record.insert("nproc", host::nproc().to_string());
    let steal = ratio((ticks1.0 - ticks0.0) as f64, (ticks1.1 - ticks0.1) as f64);
    record.insert("cpu_steal_pct", format!("{:.1}", 100.0 * steal));
    record.insert("cpu", host::cpu_model());
    record.insert("git_sha", host::git_sha());
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, record })
}

/// Removes the run's scratch directory, and its parent once empty,
/// however the run ends.
struct WorkDir<'a>(&'a std::path::Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn trace_delta_name(e2e: &str) -> &'static str {
    metrics::PER_LAYER
        .iter()
        .find(|m| m.name.strip_prefix("trace_delta.") == Some(e2e))
        .map(|m| m.name)
        .expect("every end-to-end metric has a trace_delta entry")
}
