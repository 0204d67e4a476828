//! The metric catalogue and one run's result.
//!
//! Every run prints every metric of its kind (end-to-end untraced,
//! per-layer traced), so runs of different workloads line up column for
//! column. A per-layer metric a workload has no such layer for reads 0 and
//! is listed as `n/a` in the human-readable block.

use std::collections::BTreeMap;

use lbm_bench::json::Json;

/// A metric name with its unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics (untraced runs). All are measured by the benchmark's
/// own clock around calls into the program, never read from `RunReport`.
pub const END_TO_END: &[Def] = &[
    def("mflups", "MFlup/s"),
    def("chunk_ms_p25", "ms"),
    def("setup_s", "s"),
];

/// Per-layer metrics (traced runs).
pub const PER_LAYER: &[Def] = &[
    def("machine.triad_gbs_1t", "GB/s"),
    def("machine.triad_gbs_2t", "GB/s"),
    def("machine.peak_gflops", "GFlop/s"),
    def("kernels.mflups", "MFlup/s"),
    def("kernels.mflups_1t", "MFlup/s"),
    def("kernels.thread_speedup", "ratio"),
    def("kernels.model_gbs", "GB/s"),
    def("kernels.fraction_of_roof", "ratio"),
    def("geometry.voxel_s", "s"),
    def("geometry.tiles_s", "s"),
    def("geometry.tiles", "count"),
    def("geometry.full_tile_frac", "ratio"),
    def("geometry.fluid_frac", "ratio"),
    def("sim.build_s", "s"),
    def("sim.materialise_s", "s"),
    def("sim.run_overhead_ms", "ms"),
    def("sim.chunk_ms_p90", "ms"),
    def("sim.report_over_wall", "ratio"),
    def("rank.compute_s", "s"),
    def("rank.wait_s_min", "s"),
    def("rank.wait_s_median", "s"),
    def("rank.wait_s_max", "s"),
    def("rank.comm_frac", "ratio"),
    def("halo.pack_gbs", "GB/s"),
    def("halo.unpack_gbs", "GB/s"),
    def("halo.bytes_per_step", "B"),
    def("comm.messages_per_step", "count"),
    def("comm.bytes_per_step", "B"),
    def("comm.msg_us_p50", "us"),
    def("ckpt.bytes", "B"),
    def("ckpt.encode_s", "s"),
    def("ckpt.write_s", "s"),
    def("ckpt.validate_s", "s"),
    def("ckpt.resume_s", "s"),
    def("ensemble.makespan_s", "s"),
    def("ensemble.job_s_p50", "s"),
    def("ensemble.queue_wait_s_p50", "s"),
    def("ensemble.slot_busy_frac", "ratio"),
    def("ensemble.checkpoints", "count"),
    def("ensemble.retries", "count"),
    def("trace.overhead_frac", "ratio"),
    def("trace.unattributed_frac", "ratio"),
];

/// One run's measurements, correctness tally and human-readable notes.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Resident population bytes of the workload (for the host block).
    pub resident_bytes: u64,
}

impl Report {
    /// Count one correctness check (or one operation) and note the result.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl AsRef<str>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        let verdict = if ok { "ok" } else { "FAILED" };
        self.notes
            .push(format!("check {name}: {verdict} ({})", detail.as_ref()));
    }

    /// Count `n` operations of which `failed` failed (chunk calls, jobs).
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let is_e2e = END_TO_END.iter().any(|d| d.name == name);
        debug_assert!(is_e2e || PER_LAYER.iter().any(|d| d.name == name), "{name}");
        if is_e2e {
            self.e2e.insert(name, value);
        } else {
            self.layer.insert(name, value);
        }
    }

    /// The catalogue this run reports: per-layer when traced.
    fn catalogue(traced: bool) -> &'static [Def] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable metric lines (`n/a` marks a layer the workload lacks).
    pub fn metric_lines(&self, traced: bool) -> Vec<String> {
        let values = if traced { &self.layer } else { &self.e2e };
        Self::catalogue(traced)
            .iter()
            .map(|d| match values.get(d.name) {
                Some(v) => format!("metric {:<26} {:>14.6} {}", d.name, v, d.unit),
                None => format!("metric {:<26} {:>14} {}", d.name, "n/a", d.unit),
            })
            .collect()
    }

    /// The final machine-readable line.
    pub fn result_json(&self, traced: bool) -> Json {
        let values = if traced { &self.layer } else { &self.e2e };
        let metrics = Self::catalogue(traced)
            .iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                (
                    d.name,
                    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// catalogue, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string field");
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(&str, &str)> = cat.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut r = Report::default();
        r.set("mflups", 12.5);
        r.check("x", true, "");
        let line = r.result_json(false).render();
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", d.name)), "{line}");
        }
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0"));
    }
}
