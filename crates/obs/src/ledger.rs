//! The deterministic run ledger: counters, gauges, and labels keyed by
//! `phase/name`, optionally broken down per scenario id.
//!
//! The ledger is the *deterministic* observability plane: every value
//! recorded into it must be a pure function of the run's inputs (matrix,
//! seed, configured budget, cache warmth) — never of thread timing. The
//! representation enforces the rest: all maps are ordered
//! (`BTreeMap`), counters merge by *summation* and gauges by *maximum*
//! (both commutative and associative), so the rendered JSON is
//! byte-identical no matter how many workers recorded into it or how a
//! sharded run was split. That is the same contract
//! `scenario_fleet::Scorecard::merge_shards` pins for scorecards, and
//! ledgers are mergeable the same way ([`Ledger::merge`]).
//!
//! Wall time never enters a ledger. Timing lives in the span plane
//! ([`crate::RunReport`]), which is explicitly non-deterministic.

use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// Deterministic counters of one run (or of many merged runs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Run-level counters, keyed `phase/name`; merge sums.
    counters: BTreeMap<String, u64>,
    /// Per-scenario counters: scenario id → `phase/name` → count.
    scenarios: BTreeMap<String, BTreeMap<String, u64>>,
    /// Point-in-time values (e.g. a configured budget); merge maxes.
    gauges: BTreeMap<String, u64>,
    /// Descriptive settings (e.g. the budget source); merge requires
    /// agreement.
    labels: BTreeMap<String, String>,
    /// Distributions, keyed `phase/name`; merge sums bucket-wise (the
    /// bucket edges are fixed — see [`crate::histogram`]).
    histograms: BTreeMap<String, Histogram>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.scenarios.is_empty()
            && self.gauges.is_empty()
            && self.labels.is_empty()
            && self.histograms.is_empty()
    }

    /// Adds `n` to the run-level counter `key`.
    pub fn count(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_string()).or_default() += n;
    }

    /// Adds `n` to `key` under `scenario` *and* to the run-level
    /// counter, so run totals never need a second recording pass.
    pub fn count_scenario(&mut self, scenario: &str, key: &str, n: u64) {
        self.count(key, n);
        *self
            .scenarios
            .entry(scenario.to_string())
            .or_default()
            .entry(key.to_string())
            .or_default() += n;
    }

    /// Sets the gauge `key` (overwrites; merge takes the maximum).
    pub fn gauge(&mut self, key: &str, value: u64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Sets the label `key` (overwrites; merge requires agreement).
    pub fn label(&mut self, key: &str, value: &str) {
        self.labels.insert(key.to_string(), value.to_string());
    }

    /// Records one observation into the histogram `key`.
    pub fn observe(&mut self, key: &str, value: f64) {
        self.histograms
            .entry(key.to_string())
            .or_default()
            .observe(value);
    }

    /// A run-level counter (0 when never recorded).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A per-scenario counter (0 when never recorded).
    pub fn scenario_counter(&self, scenario: &str, key: &str) -> u64 {
        self.scenarios
            .get(scenario)
            .and_then(|m| m.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// A gauge, if set.
    pub fn gauge_value(&self, key: &str) -> Option<u64> {
        self.gauges.get(key).copied()
    }

    /// A label, if set.
    pub fn label_value(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(String::as_str)
    }

    /// A histogram, if any observation reached it.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Run-level counter keys in sorted order.
    pub fn counter_keys(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Gauge keys in sorted order.
    pub fn gauge_keys(&self) -> impl Iterator<Item = &str> {
        self.gauges.keys().map(String::as_str)
    }

    /// Label keys in sorted order.
    pub fn label_keys(&self) -> impl Iterator<Item = &str> {
        self.labels.keys().map(String::as_str)
    }

    /// Scenario ids with at least one counter, in sorted order.
    pub fn scenario_names(&self) -> impl Iterator<Item = &str> {
        self.scenarios.keys().map(String::as_str)
    }

    /// Counter keys recorded under `scenario`, in sorted order.
    pub fn scenario_counter_keys(&self, scenario: &str) -> impl Iterator<Item = &str> {
        self.scenarios
            .get(scenario)
            .into_iter()
            .flat_map(|m| m.keys().map(String::as_str))
    }

    /// All histograms in sorted key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of scenarios with at least one counter.
    pub fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    /// Folds `other` in: counters sum, gauges max, labels must agree.
    ///
    /// # Errors
    ///
    /// Rejects a merge whose labels disagree — two runs that resolved
    /// e.g. different trace-budget sources are different experiments,
    /// and silently keeping one label would misdescribe the sum.
    pub fn merge(&mut self, other: &Ledger) -> Result<(), String> {
        for (key, theirs) in &other.labels {
            match self.labels.get(key) {
                Some(ours) if ours != theirs => {
                    return Err(format!(
                        "ledger label {key:?} disagrees: {ours:?} vs {theirs:?}"
                    ));
                }
                _ => {
                    self.labels.insert(key.clone(), theirs.clone());
                }
            }
        }
        for (key, n) in &other.counters {
            *self.counters.entry(key.clone()).or_default() += n;
        }
        for (scenario, counters) in &other.scenarios {
            let entry = self.scenarios.entry(scenario.clone()).or_default();
            for (key, n) in counters {
                *entry.entry(key.clone()).or_default() += n;
            }
        }
        for (key, value) in &other.gauges {
            let slot = self.gauges.entry(key.clone()).or_default();
            *slot = (*slot).max(*value);
        }
        for (key, histogram) in &other.histograms {
            self.histograms
                .entry(key.clone())
                .or_default()
                .merge(histogram);
        }
        Ok(())
    }

    /// Deterministic JSON form: every map renders in sorted key order,
    /// so insertion order (and hence thread scheduling) can never show
    /// through.
    pub fn to_json(&self) -> Json {
        let counter_obj = |map: &BTreeMap<String, u64>| {
            Json::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            )
        };
        Json::obj([
            ("counters", counter_obj(&self.counters)),
            ("gauges", counter_obj(&self.gauges)),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "labels",
                Json::Obj(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "scenarios",
                Json::Obj(
                    self.scenarios
                        .iter()
                        .map(|(name, counters)| (name.clone(), counter_obj(counters)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Rejects missing sections, non-object sections, and counter
    /// values that are not non-negative integers.
    pub fn from_json(value: &Json) -> Result<Ledger, String> {
        let counter_map = |value: &Json, section: &str| -> Result<BTreeMap<String, u64>, String> {
            match value {
                Json::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, _)| Ok((k.clone(), value.req_index(k)?)))
                    .collect(),
                _ => Err(format!("ledger section {section:?} must be an object")),
            }
        };
        let counters = counter_map(value.req("counters")?, "counters")?;
        let gauges = counter_map(value.req("gauges")?, "gauges")?;
        let labels = match value.req("labels")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("ledger label {k:?} must be a string"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("ledger section \"labels\" must be an object".to_string()),
        };
        let scenarios = match value.req("scenarios")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(name, counters)| Ok((name.clone(), counter_map(counters, name)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            _ => return Err("ledger section \"scenarios\" must be an object".to_string()),
        };
        // Optional for back-compat: `fleet-run-report/1` ledgers (and
        // the PR 6 bench schema) predate the histogram plane.
        let histograms = match value.get("histograms") {
            None => BTreeMap::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, hist)| Ok((name.clone(), Histogram::from_json(hist)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            Some(_) => return Err("ledger section \"histograms\" must be an object".to_string()),
        };
        Ok(Ledger {
            counters,
            scenarios,
            gauges,
            labels,
            histograms,
        })
    }

    /// Parses a ledger from JSON text.
    pub fn from_json_str(text: &str) -> Result<Ledger, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// A compact text summary: labels and gauges first, then run-level
    /// counters (scenario breakdowns stay in the JSON — hundreds of
    /// scenarios do not belong on a terminal).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (key, value) in &self.labels {
            let _ = writeln!(out, "{key} = {value}");
        }
        for (key, value) in &self.gauges {
            let _ = writeln!(out, "{key} = {value}");
        }
        for (key, value) in &self.counters {
            let _ = writeln!(out, "{key}: {value}");
        }
        for (key, histogram) in &self.histograms {
            let _ = writeln!(out, "{key} ~ {}", histogram.render_line());
        }
        if self.scenario_count() > 0 {
            let _ = writeln!(
                out,
                "({} scenarios carry per-scenario breakdowns)",
                self.scenario_count()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ledger {
        let mut ledger = Ledger::new();
        ledger.count("synth/trace_generations", 3);
        ledger.count_scenario("desert", "slots/processed", 1920);
        ledger.count_scenario("marine", "slots/processed", 960);
        ledger.gauge("admission/trace_budget_bytes", 4 << 20);
        ledger.label("admission/trace_budget_source", "bounded");
        ledger
    }

    #[test]
    fn scenario_counts_roll_up_into_run_totals() {
        let ledger = sample();
        assert_eq!(ledger.counter("slots/processed"), 2880);
        assert_eq!(ledger.scenario_counter("desert", "slots/processed"), 1920);
        assert_eq!(ledger.scenario_counter("absent", "slots/processed"), 0);
        assert_eq!(ledger.scenario_count(), 2);
    }

    #[test]
    fn json_round_trips_and_is_insertion_order_independent() {
        let a = sample();
        // Record the same facts in a different order.
        let mut b = Ledger::new();
        b.label("admission/trace_budget_source", "bounded");
        b.count_scenario("marine", "slots/processed", 960);
        b.gauge("admission/trace_budget_bytes", 4 << 20);
        b.count_scenario("desert", "slots/processed", 1920);
        b.count("synth/trace_generations", 3);
        assert_eq!(a.to_json_string(), b.to_json_string());
        let back = Ledger::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_and_checks_labels() {
        let mut left = sample();
        let mut right = sample();
        right.gauge("admission/trace_budget_bytes", 1 << 20);
        left.merge(&right).unwrap();
        assert_eq!(left.counter("synth/trace_generations"), 6);
        assert_eq!(left.scenario_counter("desert", "slots/processed"), 3840);
        assert_eq!(
            left.gauge_value("admission/trace_budget_bytes"),
            Some(4 << 20)
        );
        // Split-vs-monolithic equivalence: merging two halves equals
        // recording everything into one ledger.
        let mut halves = Ledger::new();
        halves.count("jobs/evaluated", 5);
        let mut other_half = Ledger::new();
        other_half.count("jobs/evaluated", 7);
        halves.merge(&other_half).unwrap();
        let mut whole = Ledger::new();
        whole.count("jobs/evaluated", 12);
        assert_eq!(halves.to_json_string(), whole.to_json_string());
        // Conflicting labels refuse to merge.
        let mut foreign = Ledger::new();
        foreign.label("admission/trace_budget_source", "detected-memory");
        assert!(left.merge(&foreign).is_err());
    }

    #[test]
    fn render_text_shows_labels_gauges_and_counters() {
        let text = sample().render_text();
        assert!(text.contains("admission/trace_budget_source = bounded"));
        assert!(text.contains("slots/processed: 2880"));
        assert!(text.contains("2 scenarios"));
    }

    #[test]
    fn from_json_rejects_malformed_sections() {
        assert!(Ledger::from_json_str("{}").is_err());
        let bad = r#"{"counters": {"a": -1}, "gauges": {}, "labels": {}, "scenarios": {}}"#;
        assert!(Ledger::from_json_str(bad).is_err());
        let bad = r#"{"counters": {}, "gauges": {}, "labels": {"a": 3}, "scenarios": {}}"#;
        assert!(Ledger::from_json_str(bad).is_err());
        let bad =
            r#"{"counters": {}, "gauges": {}, "histograms": [], "labels": {}, "scenarios": {}}"#;
        assert!(Ledger::from_json_str(bad).is_err());
    }

    #[test]
    fn histogram_plane_merges_and_round_trips_with_counters() {
        let mut a = Ledger::new();
        a.observe("score/mape", 0.08);
        a.observe("score/mape", 0.21);
        a.count("jobs/evaluated", 2);
        let mut b = Ledger::new();
        b.observe("score/mape", 0.21);
        b.observe("fleet/unit_slots", 1440.0);
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        // Merge equals recording everything into one ledger.
        let mut whole = Ledger::new();
        whole.observe("score/mape", 0.08);
        whole.observe("score/mape", 0.21);
        whole.observe("score/mape", 0.21);
        whole.observe("fleet/unit_slots", 1440.0);
        whole.count("jobs/evaluated", 2);
        assert_eq!(merged.to_json_string(), whole.to_json_string());
        assert_eq!(merged.histogram("score/mape").unwrap().count(), 3);
        let back = Ledger::from_json_str(&merged.to_json_string()).unwrap();
        assert_eq!(back, merged);
        assert!(merged.render_text().contains("score/mape ~ count 3"));
    }

    #[test]
    fn histogram_section_is_optional_on_parse_for_v1_ledgers() {
        let v1 =
            r#"{"counters": {"jobs/evaluated": 4}, "gauges": {}, "labels": {}, "scenarios": {}}"#;
        let ledger = Ledger::from_json_str(v1).unwrap();
        assert_eq!(ledger.counter("jobs/evaluated"), 4);
        assert!(ledger.histograms().next().is_none());
        // Re-rendering emits the (empty) section in the /2 shape.
        assert!(ledger.to_json_string().contains("\"histograms\""));
    }
}
