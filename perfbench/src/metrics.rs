//! The benchmark's metrics: name, unit, which direction is better, and
//! for per-layer metrics the end-to-end metric each should move.
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the smoke test holds the two together.

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metric this one should move (per-layer only).
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, moves: "" }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, moves }
}

/// Reported with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("cube_bytes_per_fact_byte", "ratio", "lower"),
    m("qps", "1/s", "higher"),
    m("p50_ms", "ms", "lower"),
    m("p99_ms", "ms", "lower"),
    m("open_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Reported by the traced run, on every workload.
pub const PER_LAYER: &[Metric] = &[
    // cure-core build, from the build report and the span around it.
    l("core.build_s", "s", "lower", "setup_s"),
    l("core.partition_s", "s", "lower", "setup_s"),
    l("core.pass_cpu_s", "s", "lower", "setup_s"),
    l("core.sort_cpu_s", "s", "lower", "setup_s"),
    l("core.flush_s", "s", "lower", "setup_s"),
    l("core.merge_s", "s", "lower", "setup_s"),
    l("core.partitions", "count", "lower", "setup_s"),
    l("core.counting_sorts", "count", "lower", "setup_s"),
    l("core.comparison_sorts", "count", "lower", "setup_s"),
    l("core.signatures", "count", "lower", "setup_s"),
    l("core.pool_flushes", "count", "lower", "setup_s"),
    l("core.tt_rows", "count", "higher", "cube_bytes_per_fact_byte"),
    l("core.nt_rows", "count", "lower", "cube_bytes_per_fact_byte"),
    l("core.cat_rows", "count", "lower", "cube_bytes_per_fact_byte"),
    // cure-core ingest, from the ingest report and the span around it.
    l("core.ingest_s", "s", "lower", "setup_s"),
    l("core.ingest_append_s", "s", "lower", "setup_s"),
    l("core.ingest_merge_s", "s", "lower", "setup_s"),
    l("core.ingest_swap_gc_s", "s", "lower", "setup_s"),
    l("core.ingest_carried_groups", "count", "lower", "setup_s"),
    l("core.ingest_merged_groups", "count", "lower", "setup_s"),
    l("core.ingest_new_groups", "count", "lower", "setup_s"),
    l("core.ingest_tt_demotions", "count", "lower", "setup_s"),
    l("core.ingest_carried_per_delta_row", "ratio", "lower", "setup_s"),
    l("core.shard_build_s", "s", "lower", "setup_s"),
    // cure-storage, from the catalog's counters around each call.
    l("storage.store_s", "s", "lower", "setup_s"),
    l("storage.build_pages_written", "count", "lower", "setup_s"),
    l("storage.build_fsyncs", "count", "lower", "setup_s"),
    l("storage.build_pages_read", "count", "lower", "setup_s"),
    l("storage.build_sort_spill_bytes", "bytes", "lower", "setup_s"),
    l("storage.build_bytes_written_per_fact_byte", "ratio", "lower", "setup_s"),
    l("storage.ingest_pages_written", "count", "lower", "setup_s"),
    l("storage.ingest_fsyncs", "count", "lower", "setup_s"),
    l("storage.ingest_pages_read", "count", "lower", "setup_s"),
    l("storage.open_checksum_verifications", "count", "lower", "open_s"),
    l("storage.serve_read_retries", "count", "lower", "p99_ms"),
    l("storage.serve_checksum_failures", "count", "lower", "p99_ms"),
    // cure-query, from the service's sampled attribution and counters.
    l("query.probe_us", "us", "lower", "p50_ms"),
    l("query.read_us", "us", "lower", "p50_ms"),
    l("query.compute_us", "us", "lower", "p50_ms"),
    l("query.attr_samples", "count", "higher", "p50_ms"),
    l("query.rows_per_query", "rows", "lower", "qps"),
    l("query.fact_fetches_per_row", "ratio", "lower", "qps"),
    l("query.agg_fetches_per_row", "ratio", "lower", "qps"),
    l("query.open_s", "s", "lower", "open_s"),
    // cure-serve service, from spans around query_with_options.
    l("serve.query_us", "us", "lower", "p50_ms"),
    l("serve.self_us", "us", "lower", "p50_ms"),
    l("serve.errors.timeout", "count", "lower", "p99_ms"),
    l("serve.errors.overloaded", "count", "lower", "p99_ms"),
    l("serve.errors.degraded", "count", "lower", "p99_ms"),
    l("serve.errors.corrupt", "count", "lower", "p99_ms"),
    l("serve.errors.query", "count", "lower", "p99_ms"),
    // cure-serve router, wire and net, from router and sub-query spans.
    l("serve.spawn_s", "s", "lower", "open_s"),
    l("serve.router_us", "us", "lower", "p50_ms"),
    l("serve.subquery_us", "us", "lower", "p50_ms"),
    l("serve.router_self_us", "us", "lower", "p50_ms"),
    l("serve.subqueries_per_query", "ratio", "lower", "qps"),
    l("serve.partial_rows_per_row", "ratio", "lower", "qps"),
    l("serve.wire_bytes_in_per_query", "bytes", "lower", "p50_ms"),
    l("serve.wire_bytes_out_per_query", "bytes", "lower", "p50_ms"),
    l("serve.wire_reconnects", "count", "lower", "p99_ms"),
    l("serve.wire_timeouts", "count", "lower", "p99_ms"),
    l("serve.failovers", "count", "lower", "p99_ms"),
    // Traced minus untraced, for every end-to-end metric.
    l("trace_delta.setup_s", "s", "lower", "setup_s"),
    l("trace_delta.cube_bytes_per_fact_byte", "ratio", "lower", "cube_bytes_per_fact_byte"),
    l("trace_delta.qps", "1/s", "higher", "qps"),
    l("trace_delta.p50_ms", "ms", "lower", "p50_ms"),
    l("trace_delta.p99_ms", "ms", "lower", "p99_ms"),
    l("trace_delta.open_s", "s", "lower", "open_s"),
    l("trace_delta.peak_rss_mb", "MB", "lower", "peak_rss_mb"),
];
