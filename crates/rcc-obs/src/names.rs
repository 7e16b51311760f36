//! Canonical registry of every metric name the workspace emits.
//!
//! One entry per `rcc_*` time series, exactly once. `workspace-lint`
//! (crates/rcc-lint) parses every crate's source and fails the build if a
//! metric string literal is used that is not registered here, or if a name
//! is registered twice or never used — so this list is the single source
//! of truth for the observable surface. Operational help text still lives
//! next to the `describe()` calls at each registration site; the short
//! summaries here are for discovery.

/// Every metric name in the workspace with a one-line summary.
/// Sorted by name; each name appears exactly once.
pub const METRICS: &[(&str, &str)] = &[
    (
        "rcc_admin_requests_total",
        "Admin HTTP requests served per route",
    ),
    (
        "rcc_backend_plan_cache_evictions_total",
        "Plans dropped to bound the back-end's plan cache",
    ),
    (
        "rcc_backend_plan_cache_hits_total",
        "Shipped statements served from a cached plan",
    ),
    (
        "rcc_backend_plan_cache_misses_total",
        "Shipped statements the back-end parsed and planned",
    ),
    (
        "rcc_batch_produced_total",
        "Column batches produced by executors",
    ),
    ("rcc_batch_rows_per_batch", "Rows per batch at query roots"),
    ("rcc_batch_selectivity", "Filter survival ratio per batch"),
    (
        "rcc_currency_slack_seconds",
        "Promised bound minus delivered staleness",
    ),
    (
        "rcc_delivered_staleness_seconds",
        "Actual staleness of served snapshots",
    ),
    ("rcc_events_total", "Journal events recorded per kind"),
    (
        "rcc_flow_guards_elided_total",
        "Currency guard evaluations skipped at run time under certified elision",
    ),
    (
        "rcc_flow_interval_violations_total",
        "Observed delivered staleness escaping a certified flow interval",
    ),
    ("rcc_guard_local_total", "Currency guards passed locally"),
    (
        "rcc_guard_remote_total",
        "Currency guards forcing remote reads",
    ),
    (
        "rcc_guard_staleness_seconds",
        "Observed staleness at guard checks",
    ),
    (
        "rcc_lint_diagnostics_total",
        "Currency-clause lint diagnostics",
    ),
    (
        "rcc_master_txns_total",
        "Transactions applied at the master",
    ),
    (
        "rcc_net_connections_open",
        "Front-end connections currently open",
    ),
    (
        "rcc_net_connections_rejected_total",
        "Connections over limit",
    ),
    (
        "rcc_net_connections_total",
        "Front-end connections accepted",
    ),
    ("rcc_net_pool_idle", "Idle pooled back-end connections"),
    (
        "rcc_net_pool_in_use",
        "Checked-out pooled back-end connections",
    ),
    ("rcc_net_remote_call_seconds", "Back-end call latency"),
    ("rcc_net_remote_retries_total", "Back-end call retries"),
    (
        "rcc_net_remote_timeouts_total",
        "Back-end call deadline hits",
    ),
    (
        "rcc_net_remote_unavailable_total",
        "Back-end declared unreachable",
    ),
    (
        "rcc_net_request_errors_total",
        "Front-end requests that errored",
    ),
    ("rcc_net_request_seconds", "Front-end request latency"),
    ("rcc_net_requests_total", "Front-end requests served"),
    (
        "rcc_observations_dropped_total",
        "Guard observations dropped",
    ),
    ("rcc_plan_cache_entries", "Compiled plans currently cached"),
    (
        "rcc_plan_cache_evictions_total",
        "Plans dropped to bound the plan cache",
    ),
    ("rcc_plan_cache_hits_total", "Plan-cache hits"),
    ("rcc_plan_cache_misses_total", "Plan-cache misses"),
    (
        "rcc_plan_cache_sibling_compiles_total",
        "Misses on a known shape: values outside every cached plan's domains",
    ),
    (
        "rcc_policy_degradations_total",
        "Violation-policy downgrades",
    ),
    ("rcc_queries_total", "Statements executed at the cache"),
    ("rcc_query_phase_seconds", "Per-phase query time"),
    ("rcc_query_rows_returned_total", "Rows returned to clients"),
    ("rcc_remote_latency_seconds", "Remote execution latency"),
    (
        "rcc_remote_queries_total",
        "Queries shipped to the back-end",
    ),
    ("rcc_replication_lag_seconds", "Replication lag per region"),
    (
        "rcc_replication_txns_applied_total",
        "Replicated txns applied",
    ),
    (
        "rcc_robust_audits_total",
        "Template robustness analyses run",
    ),
    (
        "rcc_robust_templates",
        "Declared templates by robustness verdict",
    ),
    ("rcc_rows_shipped_total", "Rows received from the back-end"),
    (
        "rcc_scan_chunks_total",
        "Storage-chunk runs local scans read, by path (image or rows)",
    ),
    (
        "rcc_slo_compliance_ratio",
        "Fraction of queries meeting their currency bound or degrading sanctioned",
    ),
    (
        "rcc_slo_queries_total",
        "Queries tracked by the currency SLO",
    ),
    (
        "rcc_slo_violations_total",
        "Queries whose currency slack went negative",
    ),
    ("rcc_snapshot_publishes_total", "Table snapshots published"),
    (
        "rcc_stale_served_total",
        "Queries served stale under policy",
    ),
    (
        "rcc_trace_dropped_spans_total",
        "Spans recorded after their trace finished",
    ),
    ("rcc_verify_audits_total", "Plan conformance audits run"),
    (
        "rcc_verify_failures_total",
        "Plan conformance audits failed",
    ),
    ("rcc_wal_bytes", "Write-ahead log size on disk"),
    (
        "rcc_wal_checkpoint_age_seconds",
        "Sim-clock seconds since the last checkpoint",
    ),
    ("rcc_wal_fsyncs_total", "WAL fsync calls issued"),
    (
        "rcc_wal_records_total",
        "WAL records since the last checkpoint",
    ),
    ("rcc_wire_bytes_decoded_total", "Protocol bytes decoded"),
    ("rcc_wire_bytes_encoded_total", "Protocol bytes encoded"),
];

/// Is `name` a registered metric name?
pub fn is_registered(name: &str) -> bool {
    METRICS.binary_search_by(|(n, _)| n.cmp(&name)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        for w in METRICS.windows(2) {
            assert!(w[0].0 < w[1].0, "{} >= {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn lookup() {
        assert!(is_registered("rcc_queries_total"));
        assert!(!is_registered("rcc_bogus_total"));
    }

    #[test]
    fn naming_discipline() {
        for (name, help) in METRICS {
            assert!(name.starts_with("rcc_"), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name}"
            );
            assert!(!help.is_empty());
        }
    }
}
