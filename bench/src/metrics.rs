//! The metric tables: the one place that names every metric, its unit, its
//! direction and — for end-to-end metrics — the bound by which it may
//! worsen. `BENCHMARK.json` is generated from these tables (`manifest`
//! subcommand) and a test keeps the checked-in file equal to them.

use crate::gen::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Same seed, same value: `--repeat-check` requires exact agreement.
    pub deterministic: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one driver run measures, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 25;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic: false,
    }
}

// Bounds. The timing metrics carry the widest bound the contract allows:
// on the shared 2-thread reference box their interquartile spread over ten
// seeds is 2-10 % when nothing else runs and 10-20 % when something else
// takes the second core now and then (README.md, "Spread"), and a bound
// has to hold in both. The issue asked for 10-15 %. storage_ratio and
// peak_rss_mb repeat to a fraction of a percent and keep the issue's
// bounds; progressive_read_fraction is exact for one seed but moves 2-9 %
// between seeds, because how many planes an input needs depends on the
// input.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("lifecycle_s", "s", Better::Lower, 0.25),
    e2e("commit_mb_s", "MB/s", Better::Higher, 0.25),
    e2e("archive_mb_s", "MB/s", Better::Higher, 0.25),
    EndToEnd {
        deterministic: true,
        ..e2e("storage_ratio", "bytes/byte", Better::Lower, 0.005)
    },
    e2e("recreate_mb_s", "MB/s", Better::Higher, 0.25),
    e2e("recreate_p90_ms", "ms", Better::Lower, 0.25),
    e2e("publish_mb_s", "MB/s", Better::Higher, 0.25),
    e2e("pull_cold_mb_s", "MB/s", Better::Higher, 0.25),
    e2e("pull_warm_ms", "ms", Better::Lower, 0.25),
    e2e("progressive_p50_ms", "ms", Better::Lower, 0.25),
    EndToEnd {
        deterministic: true,
        ..e2e(
            "progressive_read_fraction",
            "bytes/byte",
            Better::Lower,
            0.25,
        )
    },
    e2e("query_ops_s", "ops/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 60] = [
    layer("compress.encode_hi_mb_s", "MB/s", Higher),
    layer("compress.encode_lo_mb_s", "MB/s", Higher),
    layer("compress.decode_mb_s", "MB/s", Higher),
    layer("compress.ratio_hi", "bytes/byte", Lower),
    layer("compress.ratio_lo", "bytes/byte", Lower),
    layer("tensor.split_mb_s", "MB/s", Higher),
    layer("tensor.join_mb_s", "MB/s", Higher),
    layer("tensor.bounds_mb_s", "MB/s", Higher),
    layer("delta.compute_mb_s", "MB/s", Higher),
    layer("delta.apply_mb_s", "MB/s", Higher),
    layer("delta.zero_fraction", "words/word", Higher),
    layer("pas.graph_build_ms", "ms", Lower),
    layer("pas.solve_mt_ms", "ms", Lower),
    layer("pas.solve_pt_ms", "ms", Lower),
    layer("pas.store_create_mb_s", "MB/s", Higher),
    layer("pas.store_open_ms", "ms", Lower),
    layer("pas.recreate_mb_s", "MB/s", Higher),
    layer("pas.recreate_group_parallel_mb_s", "MB/s", Higher),
    layer("pas.prefix2_mb_s", "MB/s", Higher),
    layer("pas.chain_depth_mean", "edges", Lower),
    layer("pas.chain_depth_max", "edges", Lower),
    layer("pas.delta_edge_fraction", "edges/edge", Higher),
    layer("pas.budget_use_max", "cost/cost", Lower),
    layer("pas.progressive_planes_mean", "planes", Lower),
    layer("store.insert_rows_s", "rows/s", Higher),
    layer("store.select_eq_ops_s", "ops/s", Higher),
    layer("store.scan_rows_s", "rows/s", Higher),
    layer("store.save_ms", "ms", Lower),
    layer("store.load_ms", "ms", Lower),
    layer("store.catalog_bytes", "bytes", Lower),
    layer("dlv.commit_ms_per_version", "ms", Lower),
    layer("dlv.sha256_mb_s", "MB/s", Higher),
    layer("dlv.manifest_ms", "ms", Lower),
    layer("dlv.desc_ms", "ms", Lower),
    layer("dlv.diff_ms", "ms", Lower),
    layer("dlv.staged_bytes_per_user_byte", "bytes/byte", Lower),
    layer("dql.parse_us", "us", Lower),
    layer("dql.select_ms", "ms", Lower),
    layer("dql.slice_ms", "ms", Lower),
    layer("dql.construct_ms", "ms", Lower),
    layer("dnn.forward_ms", "ms", Lower),
    layer("dnn.interval_forward_ms", "ms", Lower),
    layer("hub.publish_objects", "count", Lower),
    layer("hub.publish_bytes_in", "bytes", Lower),
    layer("hub.pull_cold_bytes_out", "bytes", Lower),
    layer("hub.pull_warm_bytes_out", "bytes", Lower),
    layer("hub.objects_p50_ms", "ms", Lower),
    layer("hub.objects_p99_ms", "ms", Lower),
    layer("hub.manifest_p50_ms", "ms", Lower),
    layer("hub.errors", "count", Lower),
    layer("hub.local_publish_mb_s", "MB/s", Higher),
    layer("hub.local_pull_mb_s", "MB/s", Higher),
    layer("par.threads", "count", Higher),
    layer("par.archive_speedup", "x", Higher),
    layer("par.recreate_speedup", "x", Higher),
    layer("archive.codec_share", "s/s", Lower),
    layer("archive.solver_share", "s/s", Lower),
    layer("archive.other_share", "s/s", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"bench/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = names.len();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest_json(), "regenerate with `run manifest`");
    }
}
