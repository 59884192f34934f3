//! Machine-wide knobs: the one place a switch is read, overridden or resolved.
//!
//! Seven switches decide how a machine runs without being part of what it
//! models: sanitizer mode, fault plan, tracing, metrics, conduit aggregation,
//! payload checksums and the live snapshot stream. Each can be chosen in up
//! to three layers, all of them one [`Knobs`] value:
//!
//! 1. **forced** — a thread-scoped override (`with_forced_*`), for harnesses
//!    that cannot reach the `MachineConfig` an app builds internally;
//! 2. **config** — the `MachineConfig::with_*` builders;
//! 3. **env** — the `PGAS_*` variables, read once per process so parallel
//!    test threads all see the same answer (the stream has no variable: it
//!    is useless without a consumer holding its ring).
//!
//! [`Knobs::resolve`] takes the first layer that made a choice, per knob,
//! and remembers which one it was. It runs once per launch, on the
//! launching thread — thread-locals do not reach PE threads, so everything
//! downstream (including conduits built on PE threads) reads the stored
//! [`ResolvedKnobs`] back from the machine.

use crate::config::MachineConfig;
use crate::fault::FaultPlan;
use crate::sanitizer::SanitizerMode;
use crate::stream::StreamConfig;
use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

/// One layer of knob choices; `None` means this layer makes no choice.
#[derive(Debug, Clone, Default)]
pub struct Knobs {
    /// Race & sync sanitizer mode (see `crate::sanitizer`).
    pub sanitizer: Option<SanitizerMode>,
    /// Deterministic fault schedule (see `crate::fault`). A zero plan is a
    /// choice — "no faults" — that beats the layers below it.
    pub faults: Option<FaultPlan>,
    /// Record a virtual-time execution trace (see `crate::trace`).
    pub trace: Option<bool>,
    /// Record per-op metrics (see `crate::metrics`).
    pub metrics: Option<bool>,
    /// Default for conduit small-op aggregation. The machine aggregates
    /// nothing itself; `pgas-conduit` reads the resolved value back.
    pub aggregation: Option<bool>,
    /// Conduit end-to-end payload checksums (CRC32 of the bytes a transfer
    /// lands, verified at apply). Free in virtual time, so they change no
    /// digest.
    pub checksums: Option<bool>,
    /// Live streaming snapshot channel (see `crate::stream`).
    pub stream: Option<StreamConfig>,
}

/// The layer whose choice a resolved knob carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Forced,
    Config,
    Env,
    Default,
}

/// A knob's value in force on one machine, and who set it.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved<T> {
    pub value: T,
    pub source: Source,
}

/// Every knob as one machine runs with it (see [`Knobs::resolve`]).
#[derive(Debug, Clone)]
pub struct ResolvedKnobs {
    pub sanitizer: Resolved<SanitizerMode>,
    /// `None` = the machine carries no fault state (no plan, or a zero one).
    pub faults: Resolved<Option<FaultPlan>>,
    pub trace: Resolved<bool>,
    pub metrics: Resolved<bool>,
    pub aggregation: Resolved<bool>,
    pub checksums: Resolved<bool>,
    pub stream: Resolved<Option<StreamConfig>>,
}

impl fmt::Display for ResolvedKnobs {
    /// One line, in the knobs' own input vocabulary:
    /// `sanitizer=off(default) … trace=on(env) aggregation=off(forced) …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flag = |on: bool| if on { "on" } else { "off" }.to_string();
        let lower = |v: &dyn fmt::Debug| format!("{v:?}").to_lowercase();
        let stream = self.stream.value.as_ref().map(|s| format!("{}ns", s.cadence_ns()));
        let knobs = [
            ("sanitizer", lower(&self.sanitizer.value), self.sanitizer.source),
            ("faults", flag(self.faults.value.is_some()), self.faults.source),
            ("trace", flag(self.trace.value), self.trace.source),
            ("metrics", flag(self.metrics.value), self.metrics.source),
            ("aggregation", flag(self.aggregation.value), self.aggregation.source),
            ("checksums", flag(self.checksums.value), self.checksums.source),
            ("stream", stream.unwrap_or(flag(false)), self.stream.source),
        ];
        let line: Vec<String> = knobs
            .iter()
            .map(|(knob, value, src)| format!("{knob}={value}({})", lower(src)))
            .collect();
        f.write_str(&line.join(" "))
    }
}

/// The first of the three layers that chose, finished into the knob's
/// resolved type.
fn pick<T: Clone, U>(
    [forced, config, env]: [&Option<T>; 3],
    finish: impl FnOnce(Option<T>) -> U,
) -> Resolved<U> {
    let (value, source) = [(forced, Source::Forced), (config, Source::Config), (env, Source::Env)]
        .into_iter()
        .find_map(|(layer, source)| layer.clone().map(|v| (Some(v), source)))
        .unwrap_or((None, Source::Default));
    Resolved { value: finish(value), source }
}

/// Fieldwise `forced.or(config).or(env)`, then the one normalisation: a zero
/// fault plan builds no fault state.
fn layered(forced: &Knobs, config: &Knobs, env: &Knobs) -> ResolvedKnobs {
    macro_rules! pick {
        ($knob:ident, $finish:expr) => {
            pick([&forced.$knob, &config.$knob, &env.$knob], $finish)
        };
    }
    ResolvedKnobs {
        sanitizer: pick!(sanitizer, Option::unwrap_or_default),
        faults: pick!(faults, |plan| plan.filter(|p| !p.is_zero())),
        trace: pick!(trace, Option::unwrap_or_default),
        metrics: pick!(metrics, Option::unwrap_or_default),
        aggregation: pick!(aggregation, Option::unwrap_or_default),
        checksums: pick!(checksums, Option::unwrap_or_default),
        stream: pick!(stream, |s| s),
    }
}

impl Knobs {
    /// Resolve every knob for a machine built from `cfg` on this thread.
    pub fn resolve(cfg: &MachineConfig) -> ResolvedKnobs {
        FORCED.with(|forced| layered(&forced.borrow(), &cfg.knobs, env()))
    }
}

// ---- env layer ---------------------------------------------------------------

fn parse_flag(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// Build the env layer from `lookup`, reporting each variable that is set
/// but unparsable through `warn` (its value is still ignored).
fn parse_env(lookup: impl Fn(&str) -> Option<String>, mut warn: impl FnMut(String)) -> Knobs {
    macro_rules! read {
        ($var:literal, $expected:expr, $parse:expr) => {
            lookup($var).and_then(|raw| {
                let parsed = $parse(&raw);
                if parsed.is_none() {
                    warn(format!("warning: ignoring {}={raw:?} (expected {})", $var, $expected));
                }
                parsed
            })
        };
    }
    let flag = "1|true|on|yes or 0|false|off|no";
    Knobs {
        sanitizer: read!("PGAS_SANITIZER", "off|record|panic", SanitizerMode::parse),
        faults: read!("PGAS_FAULT_PLAN", "off|none|drop1|drop5|flaky", FaultPlan::parse),
        trace: read!("PGAS_TRACE", flag, parse_flag),
        metrics: read!("PGAS_METRICS", flag, parse_flag),
        aggregation: read!("PGAS_COALESCE", flag, parse_flag),
        checksums: read!("PGAS_CHECKSUM", flag, parse_flag),
        stream: None,
    }
}

/// The process environment's layer, read (and complained about) once.
fn env() -> &'static Knobs {
    static ENV: OnceLock<Knobs> = OnceLock::new();
    ENV.get_or_init(|| parse_env(|var| std::env::var(var).ok(), |line| eprintln!("{line}")))
}

// ---- forced layer ------------------------------------------------------------

thread_local! {
    static FORCED: RefCell<Knobs> = RefCell::new(Knobs::default());
}

/// Run `f` with `set` applied to this thread's forced layer; the previous
/// layer is restored on exit, including on unwind.
fn with_forced<R>(set: impl FnOnce(&mut Knobs), f: impl FnOnce() -> R) -> R {
    struct Restore(Knobs);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| *c.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| {
        let mut forced = c.borrow_mut();
        let prev = forced.clone();
        set(&mut forced);
        prev
    }));
    f()
}

// The seven scoped overrides. Each applies to every machine built *on this
// thread* inside `f`, beats both the config and the environment, and nests.

/// Force the sanitizer mode.
pub fn with_forced_mode<R>(mode: SanitizerMode, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.sanitizer = Some(mode), f)
}
/// Force the fault plan ([`FaultPlan::none`] forces faults off).
pub fn with_forced_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.faults = Some(plan), f)
}
/// Force tracing on or off.
pub fn with_forced_tracing<R>(on: bool, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.trace = Some(on), f)
}
/// Force metrics recording on or off.
pub fn with_forced_metrics<R>(on: bool, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.metrics = Some(on), f)
}
/// Force conduit aggregation on or off; unlike the config/env default this
/// also beats a per-context `CoalescePolicy` (see `pgas-conduit`).
pub fn with_forced_aggregation<R>(on: bool, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.aggregation = Some(on), f)
}
/// Force payload checksums on or off.
pub fn with_forced_checksums<R>(on: bool, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.checksums = Some(on), f)
}
/// Force a streaming snapshot channel onto the machines built inside `f`.
pub fn with_forced_stream<R>(cfg: StreamConfig, f: impl FnOnce() -> R) -> R {
    with_forced(|k| k.stream = Some(cfg), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::generic_smp;
    use SanitizerMode::{Off, Panic, Record};

    fn drops(p: f64) -> FaultPlan {
        FaultPlan::transient_drops(7, p)
    }

    /// An environment that switches everything it can on.
    fn env_all_on() -> Knobs {
        Knobs {
            sanitizer: Some(Record),
            faults: Some(drops(0.01)),
            trace: Some(true),
            metrics: Some(true),
            aggregation: Some(true),
            checksums: Some(true),
            stream: None,
        }
    }

    #[test]
    fn precedence_table() {
        // Layers that disagree wherever they can: forced says off where the
        // config says on (and the reverse for aggregation/checksums, where
        // the config can say off), over an environment with no stream slot.
        let forced = Knobs {
            sanitizer: Some(Off),
            faults: Some(FaultPlan::none()),
            trace: Some(false),
            metrics: Some(false),
            aggregation: Some(true),
            checksums: Some(true),
            stream: Some(StreamConfig::new(500, 8)),
        };
        let config = generic_smp(4)
            .with_sanitizer(Panic)
            .with_faults(drops(0.25))
            .with_trace(true)
            .with_metrics(true)
            .with_aggregation(false)
            .with_checksums(false)
            .with_stream(StreamConfig::new(1000, 8))
            .knobs;
        let (env, none) = (env_all_on(), Knobs::default());
        // One row per winning source, one `value(source)` cell per knob.
        let row = |forced, config, env| layered(forced, config, env).to_string();
        assert_eq!(
            row(&forced, &config, &env),
            "sanitizer=off(forced) faults=off(forced) trace=off(forced) metrics=off(forced) \
             aggregation=on(forced) checksums=on(forced) stream=500ns(forced)"
        );
        assert_eq!(
            row(&none, &config, &env),
            "sanitizer=panic(config) faults=on(config) trace=on(config) metrics=on(config) \
             aggregation=off(config) checksums=off(config) stream=1000ns(config)"
        );
        assert_eq!(
            row(&none, &none, &env),
            "sanitizer=record(env) faults=on(env) trace=on(env) metrics=on(env) \
             aggregation=on(env) checksums=on(env) stream=off(default)"
        );
        assert_eq!(
            row(&none, &none, &none),
            "sanitizer=off(default) faults=off(default) trace=off(default) metrics=off(default) \
             aggregation=off(default) checksums=off(default) stream=off(default)"
        );
        // The plan is the winning layer's.
        assert_eq!(layered(&none, &config, &env).faults.value, Some(drops(0.25)));
        assert_eq!(layered(&none, &none, &env).faults.value, Some(drops(0.01)));
    }

    #[test]
    fn config_builders_encode_which_values_are_a_choice() {
        // Off/false is "no choice" for the three observers — the environment
        // still switches them on — and an explicit choice for the other three.
        let config = generic_smp(4)
            .with_trace(true)
            .with_trace(false)
            .with_metrics(false)
            .with_sanitizer(Off)
            .with_aggregation(false)
            .with_checksums(false)
            .with_faults(FaultPlan::none())
            .knobs;
        assert_eq!(
            layered(&Knobs::default(), &config, &env_all_on()).to_string(),
            "sanitizer=record(env) faults=off(config) trace=on(env) metrics=on(env) \
             aggregation=off(config) checksums=off(config) stream=off(default)"
        );
    }

    #[test]
    fn process_environment_is_the_env_layer() {
        // Race-free env proof: read the variables (never write them). Locally
        // they are normally unset -> all defaults; in each PGAS_* CI job this
        // asserts the variable reaches a preset machine with no code changes.
        let now = parse_env(|var| std::env::var(var).ok(), |_| ());
        let want = layered(&Knobs::default(), &Knobs::default(), &now);
        assert_eq!(Knobs::resolve(&generic_smp(4)).to_string(), want.to_string());
    }

    #[test]
    fn env_layer_parses_every_variable_and_warns_about_each_bad_one() {
        fn vars(pairs: &'static [(&str, &str)]) -> impl Fn(&str) -> Option<String> {
            move |var| pairs.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string())
        }
        let mut warnings = Vec::new();
        let good = parse_env(
            vars(&[
                ("PGAS_SANITIZER", " Record\n"),
                ("PGAS_FAULT_PLAN", "drop1"),
                ("PGAS_TRACE", "YES"),
                ("PGAS_METRICS", "0"),
                ("PGAS_COALESCE", "on"),
                ("PGAS_CHECKSUM", "false"),
            ]),
            |w| warnings.push(w),
        );
        assert_eq!((good.sanitizer, good.faults), (Some(Record), FaultPlan::parse("drop1")));
        assert_eq!((good.trace, good.metrics), (Some(true), Some(false)));
        assert_eq!((good.aggregation, good.checksums), (Some(true), Some(false)));
        assert!(good.stream.is_none() && warnings.is_empty(), "{warnings:?}");

        let bad = parse_env(
            vars(&[("PGAS_TRACE", "ture"), ("PGAS_METRICS", "2"), ("PGAS_SANITIZER", "tsan")]),
            |w| warnings.push(w),
        );
        assert_eq!((bad.trace, bad.metrics, bad.sanitizer), (None, None, None), "still ignored");
        assert_eq!(
            warnings,
            [
                "warning: ignoring PGAS_SANITIZER=\"tsan\" (expected off|record|panic)",
                "warning: ignoring PGAS_TRACE=\"ture\" (expected 1|true|on|yes or 0|false|off|no)",
                "warning: ignoring PGAS_METRICS=\"2\" (expected 1|true|on|yes or 0|false|off|no)",
            ]
        );
    }

    #[test]
    fn forced_scopes_nest_and_restore_on_unwind() {
        let seen =
            || FORCED.with(|c| (c.borrow().trace, c.borrow().metrics, c.borrow().stream.is_some()));
        assert_eq!(seen(), (None, None, false));
        with_forced_tracing(true, || {
            with_forced_metrics(true, || {
                with_forced_tracing(false, || assert_eq!(seen(), (Some(false), Some(true), false)));
                assert_eq!(seen(), (Some(true), Some(true), false));
                let unwound = std::panic::catch_unwind(|| {
                    with_forced_stream(StreamConfig::new(500, 8), || {
                        assert_eq!(seen(), (Some(true), Some(true), true));
                        panic!("boom")
                    })
                });
                assert!(unwound.is_err());
                assert_eq!(seen(), (Some(true), Some(true), false), "unwind restores");
            });
            assert_eq!(seen(), (Some(true), None, false));
        });
        assert_eq!(seen(), (None, None, false));
    }
}
