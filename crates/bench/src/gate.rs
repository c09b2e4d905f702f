//! The perf-trajectory regression gate.
//!
//! A [`BenchReport`] is the stable on-disk schema (`BENCH_current.json`
//! / `BENCH_baseline.json`): suite name → metric name → value, plus
//! the git SHA and the configuration the suite ran under. Suites are
//! either **gated** — deterministic, simulator-backed, compared
//! against the baseline with per-metric tolerance bands — or
//! informational (wall-clock smoke numbers that vary with the host and
//! are recorded but never gate CI).
//!
//! The comparison itself ([`compare`]) is pure data → data so the
//! perturbation behavior is unit-testable without running a suite.

use vran_util::Json;

/// Schema identifier written into every report. Bumped to `/2` when
/// the native-decoder fast-path suite and the pipeline scratch
/// counters landed; older baselines must be regenerated, not compared.
pub const SCHEMA: &str = "vran-benchgate/2";

/// One named metric set.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Suite name (`arrange_sim`, `pipeline_static`, …).
    pub name: String,
    /// Whether regressions in this suite fail the gate.
    pub gated: bool,
    /// Metric name → value, insertion-ordered.
    pub metrics: Vec<(String, f64)>,
}

impl Suite {
    /// New suite.
    pub fn new(name: impl Into<String>, gated: bool) -> Self {
        Self {
            name: name.into(),
            gated,
            metrics: Vec::new(),
        }
    }

    /// Append one metric.
    pub fn push(&mut self, metric: impl Into<String>, value: f64) {
        self.metrics.push((metric.into(), value));
    }

    /// Look a metric up by name.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m == metric)
            .map(|(_, v)| *v)
    }
}

/// A full benchgate run: provenance plus suites.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Commit the numbers were produced at.
    pub git_sha: String,
    /// Free-form configuration description (`key: value` pairs).
    pub config: Vec<(String, String)>,
    /// The suites.
    pub suites: Vec<Suite>,
}

impl BenchReport {
    /// Empty report for the given commit.
    pub fn new(git_sha: impl Into<String>) -> Self {
        Self {
            git_sha: git_sha.into(),
            config: Vec::new(),
            suites: Vec::new(),
        }
    }

    /// Look a suite up by name.
    pub fn suite(&self, name: &str) -> Option<&Suite> {
        self.suites.iter().find(|s| s.name == name)
    }

    /// Serialize to the stable JSON schema.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("git_sha", Json::str(&self.git_sha)),
            (
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "suites",
                Json::Obj(
                    self.suites
                        .iter()
                        .map(|s| {
                            (
                                s.name.clone(),
                                Json::obj([
                                    ("gated", Json::Bool(s.gated)),
                                    (
                                        "metrics",
                                        Json::Obj(
                                            s.metrics
                                                .iter()
                                                .map(|(m, v)| (m.clone(), Json::Num(*v)))
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string_pretty()
    }

    /// Parse a report; `None` on schema mismatch or malformed input.
    pub fn from_json(text: &str) -> Option<BenchReport> {
        let v = Json::parse(text).ok()?;
        if v.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        let config = v
            .get("config")?
            .as_obj()?
            .iter()
            .map(|(k, val)| Some((k.clone(), val.as_str()?.to_string())))
            .collect::<Option<_>>()?;
        let suites = v
            .get("suites")?
            .as_obj()?
            .iter()
            .map(|(name, s)| {
                let metrics = s
                    .get("metrics")?
                    .as_obj()?
                    .iter()
                    .map(|(m, val)| Some((m.clone(), val.as_f64()?)))
                    .collect::<Option<_>>()?;
                Some(Suite {
                    name: name.clone(),
                    gated: matches!(s.get("gated")?, Json::Bool(true)),
                    metrics,
                })
            })
            .collect::<Option<_>>()?;
        Some(BenchReport {
            git_sha: v.get("git_sha")?.as_str()?.to_string(),
            config,
            suites,
        })
    }
}

/// Allowed deviation for one metric: `|cur − base| ≤ max(abs, rel·|base|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative band (fraction of the baseline value).
    pub rel: f64,
    /// Absolute band floor.
    pub abs: f64,
}

/// The closed set of tolerance classes, dispatched on metric-name
/// suffix. A gated metric whose name matches **no** class is a gate
/// violation in its own right — an unrecognized name must never
/// silently inherit a band (it used to fall through to 2 %, which
/// would wave a mistyped `.cylces` metric past any regression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToleranceClass {
    /// Simulator-exact integers (`.cycles`, `.uops`, `.instructions`,
    /// `_bits`, `_blocks`, `_iterations`, `.count`, `.accelerated`):
    /// only float round-off is allowed.
    Exact,
    /// Ratios derived from exact counts (`.upc`, `.pressure`,
    /// `.speedup`, `.ratio`): a 0.1 % band absorbs division round-off.
    Ratio,
    /// Latency percentiles read off fixed power-of-two histogram
    /// buckets (`.p50_ns`, `.p90_ns`, `.p95_ns`, `.p99_ns`): quantiles
    /// snap to bucket upper edges, so any real regression shows as a
    /// ×2 edge jump — a 25 % band passes identical values (and
    /// round-off) while failing every bucket jump.
    Percentile,
    /// Wall-clock-shaped quantities (`mbps`, `.mbps_per_core`,
    /// `.ns_per_block`, `.bits_per_s`, `.mean_ns`, `elapsed_s`): 2 %.
    Banded,
}

impl ToleranceClass {
    /// Resolve a metric name to its class, or `None` when the name
    /// matches no known suffix.
    pub fn for_metric(metric: &str) -> Option<ToleranceClass> {
        if metric.ends_with(".cycles")
            || metric.ends_with(".uops")
            || metric.ends_with(".instructions")
            || metric.ends_with("_bits")
            || metric.ends_with("_blocks")
            || metric.ends_with("_iterations")
            || metric.ends_with(".count")
            || metric.ends_with(".accelerated")
        {
            Some(ToleranceClass::Exact)
        } else if metric.ends_with(".upc")
            || metric.ends_with(".pressure")
            || metric.ends_with(".speedup")
            || metric.ends_with(".ratio")
        {
            Some(ToleranceClass::Ratio)
        } else if metric.ends_with(".p50_ns")
            || metric.ends_with(".p90_ns")
            || metric.ends_with(".p95_ns")
            || metric.ends_with(".p99_ns")
        {
            Some(ToleranceClass::Percentile)
        } else if metric == "mbps"
            || metric.ends_with(".mbps")
            || metric.ends_with(".mbps_per_core")
            || metric.ends_with(".ns_per_block")
            || metric.ends_with(".bits_per_s")
            || metric.ends_with(".mean_ns")
            || metric == "elapsed_s"
            || metric.ends_with(".elapsed_s")
        {
            Some(ToleranceClass::Banded)
        } else {
            None
        }
    }

    /// The band this class allows.
    pub fn tolerance(self) -> Tolerance {
        match self {
            ToleranceClass::Exact => Tolerance { rel: 0.0, abs: 0.5 },
            ToleranceClass::Ratio => Tolerance {
                rel: 1e-3,
                abs: 1e-9,
            },
            ToleranceClass::Percentile => Tolerance {
                rel: 0.25,
                abs: 0.5,
            },
            ToleranceClass::Banded => Tolerance {
                rel: 0.02,
                abs: 1e-9,
            },
        }
    }

    /// Class name for gate output.
    pub fn name(self) -> &'static str {
        match self {
            ToleranceClass::Exact => "exact",
            ToleranceClass::Ratio => "ratio",
            ToleranceClass::Percentile => "percentile",
            ToleranceClass::Banded => "banded",
        }
    }
}

impl Tolerance {
    /// The band for a metric by naming convention (see
    /// [`ToleranceClass`]), or `None` when no class matches — gated
    /// comparisons treat that as a violation rather than guessing.
    pub fn for_metric(metric: &str) -> Option<Tolerance> {
        ToleranceClass::for_metric(metric).map(ToleranceClass::tolerance)
    }

    /// Whether `current` sits inside the band around `baseline`.
    pub fn accepts(&self, baseline: f64, current: f64) -> bool {
        (current - baseline).abs() <= self.abs.max(self.rel * baseline.abs())
    }
}

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Suite the metric belongs to.
    pub suite: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` when the metric vanished).
    pub baseline: Option<f64>,
    /// Current value (`None` when the metric vanished).
    pub current: Option<f64>,
    /// The band that was applied; `None` when the metric name resolves
    /// to no [`ToleranceClass`] (itself the violation).
    pub tolerance: Option<Tolerance>,
}

impl Regression {
    /// One-line description for gate output.
    pub fn describe(&self) -> String {
        match (self.baseline, self.current, self.tolerance) {
            (Some(b), _, None) => format!(
                "{}/{}: no tolerance class matches this metric name \
                 (baseline {b}) — rename it to a classed suffix",
                self.suite, self.metric
            ),
            (Some(b), Some(c), Some(t)) => format!(
                "{}/{}: {} -> {} (tolerance rel {:.1}% abs {})",
                self.suite,
                self.metric,
                b,
                c,
                t.rel * 100.0,
                t.abs
            ),
            (Some(b), None, Some(_)) => {
                format!(
                    "{}/{}: metric disappeared (baseline {})",
                    self.suite, self.metric, b
                )
            }
            (None, _, _) => {
                format!(
                    "{}/{}: gated suite missing from current run",
                    self.suite, self.metric
                )
            }
        }
    }
}

/// Compare a current report against the baseline: every metric of
/// every **gated** baseline suite must resolve to a known
/// [`ToleranceClass`], be present in the current run, and sit inside
/// its band. A baseline entry with an unrecognized class is a
/// violation (it can never be meaningfully compared). Metrics added
/// since the baseline pass (they gate only after a baseline refresh);
/// ungated suites never fail.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Vec<Regression> {
    let mut out = Vec::new();
    for base_suite in baseline.suites.iter().filter(|s| s.gated) {
        let Some(cur_suite) = current.suite(&base_suite.name) else {
            out.push(Regression {
                suite: base_suite.name.clone(),
                metric: "*".into(),
                baseline: None,
                current: None,
                tolerance: None,
            });
            continue;
        };
        for (metric, base_v) in &base_suite.metrics {
            let Some(tolerance) = Tolerance::for_metric(metric) else {
                out.push(Regression {
                    suite: base_suite.name.clone(),
                    metric: metric.clone(),
                    baseline: Some(*base_v),
                    current: cur_suite.get(metric),
                    tolerance: None,
                });
                continue;
            };
            match cur_suite.get(metric) {
                Some(cur_v) if tolerance.accepts(*base_v, cur_v) => {}
                Some(cur_v) => out.push(Regression {
                    suite: base_suite.name.clone(),
                    metric: metric.clone(),
                    baseline: Some(*base_v),
                    current: Some(cur_v),
                    tolerance: Some(tolerance),
                }),
                None => out.push(Regression {
                    suite: base_suite.name.clone(),
                    metric: metric.clone(),
                    baseline: Some(*base_v),
                    current: None,
                    tolerance: Some(tolerance),
                }),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        let mut r = BenchReport::new("abc123");
        r.config.push(("core".into(), "beefy".into()));
        let mut s = Suite::new("arrange_sim", true);
        s.push("SSE128.original.cycles", 2310.0);
        s.push("SSE128.original.upc", 1.25);
        r.suites.push(s);
        let mut w = Suite::new("observe_overhead", false);
        w.push("baseline.elapsed_s", 0.25);
        r.suites.push(w);
        r
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let s = r.to_json();
        assert_eq!(BenchReport::from_json(&s).unwrap(), r);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let s = report().to_json().replace(SCHEMA, "other/9");
        assert!(BenchReport::from_json(&s).is_none());
    }

    #[test]
    fn identical_reports_pass() {
        assert!(compare(&report(), &report()).is_empty());
    }

    #[test]
    fn perturbed_gated_metric_fails() {
        let mut cur = report();
        cur.suites[0].metrics[0].1 += 10.0; // cycles are exact
        let regs = compare(&report(), &cur);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "SSE128.original.cycles");
        assert!(regs[0].describe().contains("2310"));
    }

    #[test]
    fn perturbation_within_band_passes() {
        let mut cur = report();
        cur.suites[0].metrics[1].1 *= 1.0005; // upc has a 0.1 % band
        assert!(compare(&report(), &cur).is_empty());
        cur.suites[0].metrics[1].1 *= 1.01; // …but 1 % is out
        assert_eq!(compare(&report(), &cur).len(), 1);
    }

    #[test]
    fn ungated_suite_never_fails() {
        let mut cur = report();
        cur.suites[1].metrics[0].1 *= 50.0;
        assert!(compare(&report(), &cur).is_empty());
    }

    #[test]
    fn missing_metric_and_suite_fail() {
        let mut cur = report();
        cur.suites[0].metrics.pop();
        let regs = compare(&report(), &cur);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].current, None);

        let mut cur = report();
        cur.suites.remove(0);
        let regs = compare(&report(), &cur);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "*");
    }

    #[test]
    fn new_metrics_do_not_gate() {
        let mut cur = report();
        cur.suites[0].push("AVX512.apcm.cycles", 135.0);
        assert!(compare(&report(), &cur).is_empty());
    }

    #[test]
    fn tolerance_classes_by_name() {
        assert_eq!(
            ToleranceClass::for_metric("x.cycles"),
            Some(ToleranceClass::Exact)
        );
        assert_eq!(
            ToleranceClass::for_metric("tb_bits"),
            Some(ToleranceClass::Exact)
        );
        assert_eq!(
            ToleranceClass::for_metric("x.upc"),
            Some(ToleranceClass::Ratio)
        );
        assert_eq!(
            ToleranceClass::for_metric("ue.fairness.ratio"),
            Some(ToleranceClass::Ratio)
        );
        assert_eq!(
            ToleranceClass::for_metric("latency.total.p99_ns"),
            Some(ToleranceClass::Percentile)
        );
        assert_eq!(
            ToleranceClass::for_metric("w2.mbps"),
            Some(ToleranceClass::Banded)
        );
        assert_eq!(
            Tolerance::for_metric("x.upc"),
            Some(Tolerance {
                rel: 1e-3,
                abs: 1e-9
            })
        );
        // No silent fall-through: an unrecognized name has NO class.
        assert_eq!(ToleranceClass::for_metric("something"), None);
        assert_eq!(Tolerance::for_metric("ok_packets"), None);
    }

    #[test]
    fn percentile_band_accepts_round_off_but_not_bucket_jumps() {
        let t = ToleranceClass::Percentile.tolerance();
        // Identical bucket edge: pass.
        assert!(t.accepts(1_048_576.0, 1_048_576.0));
        // One power-of-two bucket jump in either direction: fail.
        assert!(!t.accepts(1_048_576.0, 2_097_152.0));
        assert!(!t.accepts(2_097_152.0, 1_048_576.0));
    }

    #[test]
    fn unknown_class_in_gated_baseline_fails_the_gate() {
        let mut base = report();
        base.suites[0].push("mystery_metric", 7.0);
        let mut cur = base.clone();
        // Even a bit-identical current value cannot excuse a metric the
        // gate has no class for.
        let regs = compare(&base, &cur);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "mystery_metric");
        assert_eq!(regs[0].tolerance, None);
        assert!(
            regs[0].describe().contains("no tolerance class"),
            "{}",
            regs[0].describe()
        );
        // Unknown classes in *ungated* suites stay informational.
        cur.suites[1].push("also_mystery", 1.0);
        let mut base2 = report();
        base2.suites[1].push("also_mystery", 1.0);
        assert_eq!(compare(&base2, &base2).len(), 0);
    }

    #[test]
    fn percentile_regression_fails_the_gate() {
        let mut base = report();
        let mut s = Suite::new("cell_scale_smoke", true);
        s.push("latency.total.p99_ns", 16_777_216.0);
        base.suites.push(s);
        let mut cur = base.clone();
        assert!(compare(&base, &cur).is_empty());
        // p99 slides one histogram bucket up: the gate must trip.
        let idx = cur.suites.len() - 1;
        cur.suites[idx].metrics[0].1 *= 2.0;
        let regs = compare(&base, &cur);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "latency.total.p99_ns");
        assert_eq!(
            regs[0].tolerance,
            Some(ToleranceClass::Percentile.tolerance())
        );
    }
}
