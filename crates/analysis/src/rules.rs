//! The determinism rule set and its `analysis.cfg` configuration table.
//!
//! Rules are grouped by **crate class**: every crate in the workspace maps
//! to one class (`sim`, `metering`, ...) and every rule names the classes
//! it applies to. The built-in table encodes the repository's determinism
//! contract — simulation output is a pure function of `(seed, frame
//! index)` — and the `analysis.cfg` file at the workspace root carries the
//! same table in the shared `key = value` text format, so deployments can
//! tighten or relax it without recompiling.

use lightator_core::textcfg::{malformed_value, split_key_value};
use lightator_core::CoreError;

/// One lint rule of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `Instant`/`SystemTime` wall-clock reads: simulated time comes
    /// from the architecture model, never the host clock.
    NoWallClock,
    /// No `std::collections::HashMap`/`HashSet`: their iteration order is
    /// randomized per process, which breaks run-to-run determinism.
    NoHashCollections,
    /// No unseeded RNG constructors (`from_entropy`, `thread_rng`,
    /// `OsRng`): every random draw must flow from the platform seed.
    /// Seeded constructors — `SmallRng::seed_from_u64` and the
    /// counter-based `CounterRng::new(seed, frame)` — are the compliant
    /// set.
    NoUnseededRng,
    /// No `unwrap()`/`expect("…")` in library paths: fallible operations
    /// propagate `Result` so callers keep the error context.
    NoUnwrap,
    /// No `unsafe` blocks anywhere in the workspace.
    NoUnsafe,
}

impl Rule {
    /// Every rule, in diagnostic order.
    pub const ALL: [Rule; 5] = [
        Rule::NoWallClock,
        Rule::NoHashCollections,
        Rule::NoUnseededRng,
        Rule::NoUnwrap,
        Rule::NoUnsafe,
    ];

    /// The rule's stable kebab-case name, as used in `analysis.cfg` keys,
    /// `// lightator: allow(…)` suppressions and JSON findings.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoHashCollections => "no-hash-collections",
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoUnsafe => "no-unsafe",
        }
    }

    /// Parses a rule name (the inverse of [`Rule::name`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|rule| rule.name() == name)
    }

    /// One-line description used in diagnostics.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NoWallClock => {
                "wall-clock read in a simulation path; simulated time must \
                 come from the architecture model, not the host clock"
            }
            Rule::NoHashCollections => {
                "std HashMap/HashSet has randomized iteration order; use \
                 BTreeMap/BTreeSet (or a Vec) to keep runs deterministic"
            }
            Rule::NoUnseededRng => {
                "unseeded RNG constructor; every random draw must flow from \
                 the platform seed"
            }
            Rule::NoUnwrap => {
                "unwrap()/expect() in a library path; propagate Result (or \
                 suppress with a documented invariant)"
            }
            Rule::NoUnsafe => "unsafe code is forbidden across the workspace",
        }
    }
}

/// The class-partitioned rule table: which crates form which class, and
/// which classes each rule applies to.
///
/// Matching is by crate name (the `<name>` of `crates/<name>`; the
/// workspace-root `src`/`tests` compile into the umbrella crate, class
/// `suite`). A crate named in no class gets **every** rule — unknown code
/// is held to the strictest contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// `(class, crate names)` rows, in declaration order.
    classes: Vec<(String, Vec<String>)>,
    /// `(rule, classes)` rows; the pseudo-class `all` matches every crate.
    rules: Vec<(Rule, Vec<String>)>,
}

impl Default for AnalysisConfig {
    /// The built-in table — identical to the `analysis.cfg` shipped at the
    /// workspace root (a test keeps the two in sync).
    fn default() -> Self {
        let classes = [
            // Serving schedules every batch on the simulated clock, so it
            // is held to the simulation's contract.
            ("sim", vec!["core", "photonics", "sensor", "nn", "serve"]),
            ("metering", vec!["bench"]),
            ("baselines", vec!["baselines"]),
            // Tracing is simulated-time only; the lone wall-clock read (the
            // export annotation) carries an explicit suppression.
            ("telemetry", vec!["telemetry"]),
            ("tooling", vec!["analysis", "suite"]),
        ];
        let rules = [
            // Wall-clock metering is the one legitimate host-time consumer,
            // so the `metering` class is exempt from no-wall-clock.
            (
                Rule::NoWallClock,
                vec!["sim", "baselines", "telemetry", "tooling"],
            ),
            (Rule::NoHashCollections, vec!["all"]),
            (Rule::NoUnseededRng, vec!["all"]),
            (Rule::NoUnwrap, vec!["all"]),
            (Rule::NoUnsafe, vec!["all"]),
        ];
        Self {
            classes: classes
                .into_iter()
                .map(|(class, crates)| {
                    (
                        class.to_string(),
                        crates.into_iter().map(str::to_string).collect(),
                    )
                })
                .collect(),
            rules: rules
                .into_iter()
                .map(|(rule, classes)| (rule, classes.into_iter().map(str::to_string).collect()))
                .collect(),
        }
    }
}

impl AnalysisConfig {
    /// The class a crate belongs to, if any class names it.
    #[must_use]
    pub fn class_of(&self, crate_name: &str) -> Option<&str> {
        self.classes
            .iter()
            .find(|(_, crates)| crates.iter().any(|c| c == crate_name))
            .map(|(class, _)| class.as_str())
    }

    /// Whether `rule` applies to code in `crate_name`. Crates outside
    /// every class get the full rule set.
    #[must_use]
    pub fn applies(&self, rule: Rule, crate_name: &str) -> bool {
        let Some((_, classes)) = self.rules.iter().find(|(r, _)| *r == rule) else {
            return false;
        };
        if classes.iter().any(|c| c == "all") {
            return true;
        }
        match self.class_of(crate_name) {
            Some(class) => classes.iter().any(|c| c == class),
            None => true,
        }
    }

    /// Serialises the table to the shared `key = value` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# Lightator static-analysis rule table (lightator-analysis)\n");
        out.push_str("# class.<name> partitions the workspace crates; rule.<rule> lists the\n");
        out.push_str("# classes it applies to (`all` matches every crate).\n");
        out.push_str("# Seeded RNG constructors (SmallRng::seed_from_u64, CounterRng::new)\n");
        out.push_str("# satisfy no-unseeded-rng; from_entropy/thread_rng/OsRng are flagged.\n");
        for (class, crates) in &self.classes {
            out.push_str(&format!("class.{class} = {}\n", crates.join(", ")));
        }
        for (rule, classes) in &self.rules {
            out.push_str(&format!("rule.{} = {}\n", rule.name(), classes.join(", ")));
        }
        out
    }

    /// Parses the `key = value` table produced by
    /// [`AnalysisConfig::to_text`]. Missing rows keep the built-in
    /// defaults for *rules*, while any `class.` row replaces the whole
    /// built-in class table (partial class tables would silently reclass
    /// crates).
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, unknown rule names and empty value lists with
    /// an error naming the offending key.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let mut config = Self::default();
        let mut classes: Vec<(String, Vec<String>)> = Vec::new();
        for raw in text.lines() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (key, value) = split_key_value(trimmed)?;
            let items: Vec<String> = value
                .split(',')
                .map(|item| item.trim().to_string())
                .filter(|item| !item.is_empty())
                .collect();
            if items.is_empty() {
                return Err(malformed_value(key, "expected a comma-separated list"));
            }
            if let Some(class) = key.strip_prefix("class.") {
                if class.is_empty() {
                    return Err(malformed_value(key, "class rows need a class name"));
                }
                classes.push((class.to_string(), items));
            } else if let Some(name) = key.strip_prefix("rule.") {
                let Some(rule) = Rule::parse(name) else {
                    return Err(malformed_value(
                        key,
                        "unknown rule (expected no-wall-clock, no-hash-collections, \
                         no-unseeded-rng, no-unwrap or no-unsafe)",
                    ));
                };
                if let Some(row) = config.rules.iter_mut().find(|(r, _)| *r == rule) {
                    row.1 = items;
                }
            } else {
                return Err(malformed_value(
                    key,
                    "unknown analysis configuration key (expected class.* or rule.*)",
                ));
            }
        }
        if !classes.is_empty() {
            config.classes = classes;
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.name()), Some(rule));
            assert!(!rule.describe().is_empty());
        }
        assert_eq!(Rule::parse("no-such-rule"), None);
    }

    #[test]
    fn default_table_encodes_the_determinism_contract() {
        let config = AnalysisConfig::default();
        assert_eq!(config.class_of("core"), Some("sim"));
        assert_eq!(config.class_of("bench"), Some("metering"));
        assert_eq!(config.class_of("not-a-crate"), None);
        // Wall clocks: banned in sim, allowed for metering.
        assert!(config.applies(Rule::NoWallClock, "core"));
        assert!(!config.applies(Rule::NoWallClock, "bench"));
        assert!(config.applies(Rule::NoWallClock, "serve"));
        // The telemetry crate traces in simulated time only, so it is held
        // to the wall-clock ban like the simulation crates.
        assert_eq!(config.class_of("telemetry"), Some("telemetry"));
        assert!(config.applies(Rule::NoWallClock, "telemetry"));
        // Everything else applies everywhere.
        for crate_name in ["core", "bench", "serve", "analysis", "unknown"] {
            assert!(config.applies(Rule::NoHashCollections, crate_name));
            assert!(config.applies(Rule::NoUnwrap, crate_name));
            assert!(config.applies(Rule::NoUnsafe, crate_name));
        }
        // Unknown crates get the strictest contract.
        assert!(config.applies(Rule::NoWallClock, "unknown"));
    }

    #[test]
    fn config_round_trips_through_text() {
        let config = AnalysisConfig::default();
        let parsed = AnalysisConfig::from_text(&config.to_text()).expect("parse");
        assert_eq!(parsed, config);
    }

    #[test]
    fn overrides_replace_rule_rows() {
        let parsed = AnalysisConfig::from_text("rule.no-wall-clock = all\n").expect("parse");
        assert!(parsed.applies(Rule::NoWallClock, "bench"));
        // Unmentioned rules keep their defaults.
        assert!(parsed.applies(Rule::NoUnwrap, "core"));
    }

    #[test]
    fn malformed_tables_are_rejected_with_context() {
        assert!(AnalysisConfig::from_text("rule.no-such = all").is_err());
        assert!(AnalysisConfig::from_text("class. = core").is_err());
        assert!(AnalysisConfig::from_text("bogus.key = 1").is_err());
        assert!(AnalysisConfig::from_text("rule.no-unwrap = ").is_err());
        assert!(AnalysisConfig::from_text("no equals").is_err());
    }
}
