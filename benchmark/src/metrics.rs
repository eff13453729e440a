//! The names the binary prints. `BENCHMARK.json` must list exactly these
//! (`check-manifest` compares the two), and a run refuses to report a set
//! that differs from its table, so the manifest cannot drift from the code.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// A measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported for every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("p50_us", "us"),
    lower("p95_us", "us"),
    lower("wire_bytes_per_op", "B"),
    lower("stored_bytes_per_user_byte", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// Reported for every workload by a traced run; prefix = crate or module.
pub const PER_LAYER: &[MetricDef] = &[
    lower("crypto.sha256_64b_ns", "ns"),
    higher("crypto.sha256_4k_mb_s", "MB/s"),
    lower("crypto.merkle_audit_verify_ns", "ns"),
    lower("storage.put_us", "us"),
    lower("storage.get_hit_us", "us"),
    lower("storage.get_miss_us", "us"),
    lower("storage.sync_us", "us"),
    higher("storage.cache_hit_ratio", "ratio"),
    lower("storage.fsyncs_per_commit", "ratio"),
    lower("storage.disk_bytes_per_commit", "B"),
    lower("storage.space_amp", "ratio"),
    lower("storage.compact_s", "s"),
    lower("storage.space_amp_after_compact", "ratio"),
    lower("storage.reopen_s", "s"),
    lower("storage.io_retries", "count"),
    lower("index.insert_us", "us"),
    lower("index.get_us", "us"),
    lower("index.prove_us", "us"),
    lower("index.verify_us", "us"),
    lower("index.proof_bytes", "B"),
    lower("index.nodes_per_proof", "count"),
    lower("index.multi16_prove_us", "us"),
    lower("index.multi16_proof_bytes_per_key", "B"),
    lower("index.range500_prove_us", "us"),
    lower("index.range500_verify_us", "us"),
    lower("index.range500_proof_bytes_per_entry", "B"),
    lower("ledger.append_block1_us", "us"),
    lower("ledger.append_block32_us", "us"),
    lower("ledger.prove_us", "us"),
    lower("ledger.snapshot_us", "us"),
    lower("ledger.proof_bytes", "B"),
    lower("pipeline.commit_us", "us"),
    higher("pipeline.group_size_mean", "count"),
    lower("pipeline.flush_us", "us"),
    lower("pipeline.queue_depth_max", "count"),
    lower("txn.commit1_us", "us"),
    lower("txn.abort_ratio", "ratio"),
    lower("twopc.execute32_us", "us"),
    lower("twopc.prepares", "count"),
    lower("twopc.aborts", "count"),
    lower("core.put_us", "us"),
    lower("core.put_batch32_us", "us"),
    lower("core.get_us", "us"),
    lower("core.get_verified_us", "us"),
    lower("core.get_multi16_us", "us"),
    lower("core.snapshot_us", "us"),
    lower("core.range500_us", "us"),
    lower("core.digest_us", "us"),
    lower("core.verify_point_us", "us"),
    lower("core.verify_multi16_us", "us"),
    lower("core.verify_range500_us", "us"),
    lower("core.point_proof_bytes", "B"),
    lower("core.multi16_proof_bytes_per_key", "B"),
    lower("core.range500_proof_bytes_per_entry", "B"),
    lower("server.ping_rtt_us", "us"),
    lower("server.get_rtt_us", "us"),
    lower("server.get_verified_rtt_us", "us"),
    lower("server.batch16_rtt_us", "us"),
    lower("server.range100_rtt_us", "us"),
    lower("server.put_rtt_us", "us"),
    lower("server.digest_rtt_us", "us"),
    lower("server.request_us", "us"),
    lower("server.wire_overhead_us", "us"),
    higher("server.proof_cache_hit_ratio", "ratio"),
    lower("server.busy_rejections", "count"),
    lower("client.decode_verify_us", "us"),
    lower("client.repin_ratio", "ratio"),
    lower("bench.trace_overhead_frac", "ratio"),
    higher("bench.span_coverage", "ratio"),
    higher("bench.spans", "count"),
];

/// Pair measured values with their table. Every table entry must have been
/// measured exactly once and nothing else may have been.
pub fn attach_units(table: &[MetricDef], values: &[(&str, f64)]) -> Result<Vec<Metric>, String> {
    for (name, _) in values {
        if !table.iter().any(|def| def.name == *name) {
            return Err(format!(
                "measured metric {name} is not in the binary's table"
            ));
        }
    }
    table
        .iter()
        .map(|def| {
            let mut found = values.iter().filter(|(name, _)| *name == def.name);
            match (found.next(), found.next()) {
                (Some(&(_, value)), None) => Ok(Metric {
                    name: def.name,
                    unit: def.unit,
                    value,
                }),
                (None, _) => Err(format!("metric {} was not measured", def.name)),
                _ => Err(format!("metric {} was measured twice", def.name)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }

    #[test]
    fn attach_units_wants_exactly_the_table() {
        let table = &END_TO_END[..2];
        assert!(attach_units(table, &[("setup_s", 1.0), ("ops_per_s", 2.0)]).is_ok());
        assert!(attach_units(table, &[("setup_s", 1.0)]).is_err());
        assert!(attach_units(
            table,
            &[("setup_s", 1.0), ("ops_per_s", 2.0), ("p50_us", 3.0)]
        )
        .is_err());
        assert!(attach_units(
            table,
            &[("setup_s", 1.0), ("setup_s", 1.0), ("ops_per_s", 2.0)]
        )
        .is_err());
    }
}
