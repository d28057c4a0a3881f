//! The one strict flag parser behind `mqo` and `loadgen`.
//!
//! Each verb declares a [`Spec`]: its positional arguments, its boolean
//! switches, and its value flags. Anything outside the spec is a usage
//! error, never a silent default: an unknown flag, a value flag with no
//! value, a stray or missing positional, and — when the code reads it —
//! a value that does not parse as the number it must be. Usage errors
//! exit with status 2 ([`CliError::exit_code`]); failures of the work
//! itself exit with 1. A flag given twice keeps its last value.

use std::collections::HashMap;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// What one verb accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Names of the required positional arguments, in order (for error
    /// messages).
    pub positional: &'static [&'static str],
    /// Flags that take no value (`--boost`).
    pub switches: &'static [&'static str],
    /// Flags that take exactly one value (`--seed 42`).
    pub values: &'static [&'static str],
}

/// Why a command stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself is wrong (exit status 2).
    Usage(String),
    /// The command line was fine but the work failed (exit status 1).
    Failed(String),
}

impl CliError {
    /// Print the error and turn it into the process exit status.
    pub fn exit_code(&self) -> ExitCode {
        eprintln!("error: {self}");
        ExitCode::from(match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        })
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => f.write_str(m),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Failed(message.to_string())
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    positional: Vec<String>,
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Parse `args` (the words after the verb) against `spec`.
    pub fn parse(args: &[String], spec: &Spec) -> Result<Args, CliError> {
        let usage = |m: String| Err(CliError::Usage(m));
        let mut parsed =
            Args { positional: Vec::new(), values: HashMap::new(), switches: Vec::new() };
        let mut words = args.iter();
        while let Some(word) = words.next() {
            let Some(name) = word.strip_prefix("--") else {
                if parsed.positional.len() == spec.positional.len() {
                    return usage(format!("unexpected argument '{word}'"));
                }
                parsed.positional.push(word.clone());
                continue;
            };
            if let Some(&switch) = spec.switches.iter().find(|&&s| s == name) {
                parsed.switches.push(switch);
            } else if let Some(&flag) = spec.values.iter().find(|&&v| v == name) {
                match words.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.values.insert(flag, value.clone());
                    }
                    _ => return usage(format!("--{flag} needs a value")),
                }
            } else {
                return usage(format!("unknown flag '{word}'"));
            }
        }
        if let Some(missing) = spec.positional.get(parsed.positional.len()) {
            return usage(format!("missing {missing}"));
        }
        Ok(parsed)
    }

    /// Positional argument `i` (the spec guarantees it is present).
    pub fn pos(&self, i: usize) -> &str {
        &self.positional[i]
    }

    /// Whether switch or value flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name) || self.values.contains_key(name)
    }

    /// The value of flag `name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of flag `name` parsed as a `T`, if given; a value that
    /// does not parse is a usage error.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| CliError::Usage(format!("bad --{name} '{v}'"))))
            .transpose()
    }

    /// Like [`Args::num`], falling back to `default` when not given.
    pub fn num_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.num(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec =
        Spec { positional: &["DATASET"], switches: &["boost"], values: &["seed", "out"] };

    fn parse(line: &str) -> Result<Args, CliError> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&words, &SPEC)
    }

    fn usage_error(line: &str) -> String {
        match parse(line) {
            Err(CliError::Usage(m)) => m,
            other => panic!("{line:?} should be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn declared_flags_and_positionals_parse() {
        let a = parse("cora --seed 7 --boost --out f.json --seed 9").unwrap();
        assert_eq!(a.pos(0), "cora");
        assert!(a.has("boost") && a.has("seed") && !a.has("nope"));
        assert_eq!(a.get("out"), Some("f.json"));
        assert_eq!(a.num_or::<u64>("seed", 42).unwrap(), 9, "the last value wins");
        assert_eq!(parse("cora").unwrap().num_or::<u64>("seed", 42).unwrap(), 42);
    }

    #[test]
    fn unknown_flags_are_errors() {
        assert!(usage_error("cora --parallel 4").contains("unknown flag '--parallel'"));
    }

    #[test]
    fn a_value_flag_without_a_value_is_an_error() {
        assert!(usage_error("cora --seed").contains("--seed needs a value"));
        assert!(usage_error("cora --seed --boost").contains("--seed needs a value"));
    }

    #[test]
    fn stray_and_missing_positionals_are_errors() {
        assert!(usage_error("cora citeseer").contains("unexpected argument 'citeseer'"));
        // A switch takes no value, so its would-be value is a stray.
        assert!(usage_error("cora --boost yes").contains("unexpected argument 'yes'"));
        assert!(usage_error("--seed 1").contains("missing DATASET"));
    }

    #[test]
    fn unparsable_numbers_are_usage_errors() {
        let a = parse("cora --seed abc").unwrap();
        assert_eq!(a.num::<u64>("seed"), Err(CliError::Usage("bad --seed 'abc'".into())));
        assert!(a.num_or::<u64>("seed", 1).is_err());
    }

    #[test]
    fn usage_errors_exit_2_and_failures_exit_1() {
        let code = |e: CliError| format!("{:?}", e.exit_code());
        assert_eq!(code(CliError::Usage("u".into())), format!("{:?}", ExitCode::from(2)));
        assert_eq!(code("f".into()), format!("{:?}", ExitCode::from(1)));
    }
}
