//! The one argument parser behind every command-line front end: `pvplan`
//! and its subcommands, the experiment harness bins and `loadgen`.
//!
//! A command declares its flags as a `const` table of [`Flag`]s; [`parse`]
//! walks the argv against one or more such tables and owns everything the
//! commands used to repeat: "needs a value", unknown-flag rejection and
//! `--help`/`-h`. The typed getters on [`Matches`] turn a bad value into an
//! error that names the flag, what it expects and the value it got.
//! Parsing is pure — no I/O, no exits — so every command's error paths
//! are unit-testable.
//!
//! ```
//! use pv_bench::cli::{self, Flag};
//! const FLAGS: &[Flag] = &[Flag::value("--port"), Flag::switch("--watch-stdin")];
//! let argv: Vec<String> = ["--port", "0"].map(String::from).to_vec();
//! let m = cli::parse("serve", &[FLAGS], &argv).unwrap();
//! assert_eq!(m.get::<u16>("--port", "0..=65535").unwrap(), Some(0));
//! assert!(!m.has("--watch-stdin"));
//! let bogus = ["--bogus".to_string()];
//! let err = cli::parse("serve", &[FLAGS], &bogus).unwrap_err();
//! assert_eq!(err, "unknown serve flag '--bogus' (try --help)");
//! ```

use std::str::FromStr;

/// How a flag consumes the argv.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// Present or absent, no value.
    Switch,
    /// Takes the next argument; given twice, the last one wins.
    Value,
    /// Takes the next argument each time it appears; every value is kept.
    Repeated,
}

/// One entry of a command's flag table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--threads`.
    pub name: &'static str,
    /// What it consumes.
    pub arity: Arity,
}

impl Flag {
    /// A flag without a value.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self::new(name, Arity::Switch)
    }

    /// A flag that takes one value.
    #[must_use]
    pub const fn value(name: &'static str) -> Self {
        Self::new(name, Arity::Value)
    }

    /// A flag that takes a value and may repeat.
    #[must_use]
    pub const fn repeated(name: &'static str) -> Self {
        Self::new(name, Arity::Repeated)
    }

    const fn new(name: &'static str, arity: Arity) -> Self {
        Self { name, arity }
    }
}

/// The flags one invocation passed, in argv order.
#[derive(Debug, Default)]
pub struct Matches<'a> {
    seen: Vec<(&'static str, &'a str)>,
    /// `--help` or `-h` was passed.
    pub help: bool,
}

/// Walks `args` against the union of `tables`.
///
/// # Errors
///
/// `<flag> needs a value` when a value flag ends the argv, and
/// `unknown <command> flag '<arg>'` for anything not in a table (an empty
/// `command` reads `unknown flag '<arg>'`).
pub fn parse<'a>(
    command: &str,
    tables: &[&[Flag]],
    args: &'a [String],
) -> Result<Matches<'a>, String> {
    let mut matches = Matches::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            matches.help = true;
            continue;
        }
        let Some(flag) = tables.iter().flat_map(|t| t.iter()).find(|f| f.name == arg) else {
            let command = if command.is_empty() {
                String::new()
            } else {
                format!("{command} ")
            };
            return Err(format!("unknown {command}flag '{arg}' (try --help)"));
        };
        let value = match flag.arity {
            Arity::Switch => "",
            Arity::Value | Arity::Repeated => it
                .next()
                .ok_or_else(|| format!("{} needs a value", flag.name))?,
        };
        matches.seen.push((flag.name, value));
    }
    Ok(matches)
}

/// One line listing the flags of `tables`, for commands that answer
/// `--help` without help text of their own.
#[must_use]
pub fn usage(tables: &[&[Flag]]) -> String {
    let flags: Vec<String> = tables
        .iter()
        .flat_map(|t| t.iter())
        .map(|f| match f.arity {
            Arity::Switch => format!("[{}]", f.name),
            Arity::Value => format!("[{} V]", f.name),
            Arity::Repeated => format!("[{} V]...", f.name),
        })
        .collect();
    format!("usage: {}", flags.join(" "))
}

impl<'a> Matches<'a> {
    /// Whether `name` was passed.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.seen.iter().any(|(flag, _)| *flag == name)
    }

    /// The names passed, in argv order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.seen.iter().map(|(flag, _)| *flag)
    }

    /// Every value given to `name`, in argv order.
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.seen
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// The last value given to `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).last()
    }

    /// Every value of `name` through `parse`.
    ///
    /// # Errors
    ///
    /// `<name> expects <expects>, got '<value>'` for the first value
    /// `parse` refuses.
    pub fn parse_all<T>(
        &self,
        name: &str,
        expects: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        self.values(name)
            .map(|v| parse(v).ok_or_else(|| format!("{name} expects {expects}, got '{v}'")))
            .collect()
    }

    /// The last value of `name` through `parse`; `None` when absent.
    ///
    /// # Errors
    ///
    /// As [`parse_all`](Self::parse_all): every value is checked.
    pub fn parse<T>(
        &self,
        name: &str,
        expects: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        Ok(self.parse_all(name, expects, parse)?.pop())
    }

    /// [`parse`](Self::parse) through `T`'s [`FromStr`].
    ///
    /// # Errors
    ///
    /// As [`parse_all`](Self::parse_all).
    pub fn get<T: FromStr>(&self, name: &str, expects: &str) -> Result<Option<T>, String> {
        self.parse(name, expects, |v| v.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::value("--seed"),
        Flag::switch("--full"),
        Flag::repeated("--chimney"),
    ];

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn values_last_win_repeats_accumulate_and_help_is_owned_by_the_loop() {
        let args = argv("--seed 1 --chimney a -h --seed 2 --chimney b");
        let m = parse("suite", &[TABLE], &args).unwrap();
        assert_eq!(m.get::<u64>("--seed", "an integer").unwrap(), Some(2));
        assert_eq!(m.values("--chimney").collect::<Vec<_>>(), ["a", "b"]);
        assert!(m.help && !m.has("--full"));
        let names: Vec<_> = m.names().collect();
        assert_eq!(names, ["--seed", "--chimney", "--seed", "--chimney"]);
    }

    #[test]
    fn errors_name_the_flag_and_the_value() {
        for (args, want) in [
            ("--seed", "--seed needs a value"),
            ("--bogus", "unknown flag '--bogus' (try --help)"),
            ("--full x", "unknown flag 'x' (try --help)"),
        ] {
            assert_eq!(parse("", &[TABLE], &argv(args)).unwrap_err(), want);
        }
        let args = argv("--seed x --seed 3");
        let m = parse("", &[TABLE], &args).unwrap();
        let err = m.get::<u64>("--seed", "an integer").unwrap_err();
        assert_eq!(err, "--seed expects an integer, got 'x'");
        let usage = usage(&[TABLE]);
        assert_eq!(usage, "usage: [--seed V] [--full] [--chimney V]...");
    }
}
