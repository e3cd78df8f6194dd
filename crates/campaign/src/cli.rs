//! One command line for the workspace's binaries.
//!
//! A binary declares what it reads as data: a [`Cli`] holds one
//! [`Command`] per subcommand (or role), and each command is a table of
//! [`Flag`]s, each with the [`Kind`] its value must have and whether it may
//! repeat. One parser reads every command line against its table before any
//! work starts, and refuses, as one `<binary>: <message>` line on stderr
//! and exit 1:
//!
//! - a flag no command of the binary reads (`unknown flag '--x'`);
//! - a flag of another command (`<command> does not take --x (it takes …)`),
//!   so no flag is accepted and then ignored;
//! - a missing value, a value not of the flag's kind, and a second copy of
//!   a flag that does not repeat.
//!
//! `--help` or `-h` anywhere on the line prints the binary's usage to
//! stdout and exits 0. [`emit`] is the one writer of what the binaries
//! print to stdout.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No value: the flag is there or not.
    Switch,
    /// Any text.
    Text,
    /// An integer of at least 1 (a `usize`).
    Positive,
    /// An integer of at least 0 (a `u64`).
    Unsigned,
    /// A finite number (an `f64`).
    Number,
    /// One of a fixed list of words.
    OneOf(&'static [&'static str]),
}

/// One entry of a command's flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed: `--name`.
    name: &'static str,
    /// What its value must be.
    kind: Kind,
    /// Whether it may be given more than once.
    repeats: bool,
}

impl Flag {
    /// A flag given at most once.
    pub const fn new(name: &'static str, kind: Kind) -> Flag {
        Flag {
            name,
            kind,
            repeats: false,
        }
    }

    /// The same flag, allowed any number of times.
    pub const fn repeated(self) -> Flag {
        Flag {
            repeats: true,
            ..self
        }
    }
}

/// A subcommand (or role) and the flags it reads.
#[derive(Debug)]
pub struct Command {
    /// Its name in messages, and the word that selects a subcommand.
    pub name: &'static str,
    /// Every flag it reads.
    flags: &'static [Flag],
}

impl Command {
    /// `name`, reading `flags`.
    pub const fn new(name: &'static str, flags: &'static [Flag]) -> Command {
        Command { name, flags }
    }
}

/// A binary's command line.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name, which starts every error line.
    pub name: &'static str,
    /// What `--help` prints.
    pub usage: &'static str,
    /// Its subcommands or roles; a flag none of them reads is unknown.
    pub commands: &'static [Command],
}

/// A command line checked against its command's table.
#[derive(Debug)]
pub struct Args {
    /// The command it was read against.
    pub command: &'static Command,
    /// Each flag read, with its value (`None` for a switch), in order.
    values: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag` as the type its kind names (`usize` for
    /// [`Kind::Positive`], `u64` for [`Kind::Unsigned`], `f64` for
    /// [`Kind::Number`], any text type otherwise); `None` when it was not
    /// given.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.values.iter().find(|(name, _)| *name == flag)?;
        let value = value.as_deref()?;
        let parsed = value.parse().ok();
        assert!(
            parsed.is_some(),
            "{flag} '{value}' read as a type other than its kind's"
        );
        parsed
    }

    /// Every value of a repeatable flag, in order.
    pub fn all(&self, flag: &str) -> Vec<String> {
        let of_flag = self.values.iter().filter(|(name, _)| *name == flag);
        of_flag.filter_map(|(_, value)| value.clone()).collect()
    }
}

impl Cli {
    /// Read `args`, the words after the program name, whose first word
    /// names the subcommand. No word (or `help`) prints the usage.
    pub fn parse_subcommand(&self, args: &[String]) -> Args {
        self.help_if_asked(args);
        let Some(word) = args.first().filter(|w| *w != "help") else {
            self.help()
        };
        match self.commands.iter().find(|c| c.name == word) {
            Some(command) => self.parse(command, &args[1..]),
            None => {
                let names: Vec<&str> = self.commands.iter().map(|c| c.name).collect();
                let names = and_list(&names);
                self.fail(&format!("unknown subcommand '{word}' (it has {names})"))
            }
        }
    }

    /// Read `args` against `command`'s table. Help and every refusal end
    /// the process here, before the caller does any work.
    pub fn parse(&self, command: &'static Command, args: &[String]) -> Args {
        self.help_if_asked(args);
        self.check(command, args)
            .unwrap_or_else(|message| self.fail(&message))
    }

    /// The exit of a finished command: success, or its error as one
    /// `<binary>: <message>` line on stderr and exit 1.
    pub fn finish(&self, result: Result<(), String>) -> ExitCode {
        match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{}: {message}", self.name);
                ExitCode::FAILURE
            }
        }
    }

    fn check(&self, command: &'static Command, args: &[String]) -> Result<Args, String> {
        let mut values: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut words = args.iter();
        while let Some(word) = words.next() {
            let Some(flag) = command.flags.iter().find(|f| f.name == word) else {
                let mut known = self.commands.iter().flat_map(|c| c.flags);
                if !known.any(|f| f.name == word) {
                    return Err(format!("unknown flag '{word}'"));
                }
                let takes: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
                let takes = and_list(&takes);
                return Err(format!(
                    "{} does not take {word} (it takes {takes})",
                    command.name
                ));
            };
            if !flag.repeats && values.iter().any(|(name, _)| *name == flag.name) {
                return Err(format!("{word} is given more than once"));
            }
            let value = if flag.kind == Kind::Switch {
                None
            } else {
                let value = words
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{word} requires a value"))?;
                check_value(flag, value)?;
                Some(value.clone())
            };
            values.push((flag.name, value));
        }
        Ok(Args { command, values })
    }

    fn help_if_asked(&self, args: &[String]) {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            self.help();
        }
    }

    fn help(&self) -> ! {
        if let Err(message) = emit(self.usage) {
            self.fail(&message)
        }
        std::process::exit(0)
    }

    fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.name);
        std::process::exit(1)
    }
}

/// Check `value` against `flag`'s kind.
fn check_value(flag: &Flag, value: &str) -> Result<(), String> {
    let expects = match flag.kind {
        Kind::Positive if value.parse::<usize>().map_or(true, |n| n == 0) => "a positive integer",
        Kind::Unsigned if value.parse::<u64>().is_err() => "an unsigned integer",
        Kind::Number if !value.parse::<f64>().is_ok_and(f64::is_finite) => "a number",
        Kind::OneOf(words) if !words.contains(&value) => &words.join("|"),
        _ => return Ok(()),
    };
    Err(format!("{} expects {expects}, got '{value}'", flag.name))
}

/// `a`, `a and b`, `a, b and c`; `no flags` for none.
fn and_list(items: &[&str]) -> String {
    match items {
        [] => "no flags".to_string(),
        [one] => one.to_string(),
        [rest @ .., last] => format!("{} and {last}", rest.join(", ")),
    }
}

/// Write `text` to stdout: the one writer of everything the binaries print
/// there. A reader that closed the pipe early (`… | head`) chose to stop,
/// so a broken pipe ends the process quietly with exit 0; any other write
/// error fails the command.
pub fn emit(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_all(text.as_bytes());
    match written.and_then(|()| stdout.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("write to stdout: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: Flag = Flag::new("--seed", Kind::Unsigned);
    const CLI: Cli = Cli {
        name: "demo",
        usage: "demo usage\n",
        commands: &[
            Command::new(
                "go",
                &[
                    Flag::new("--label", Kind::Text).repeated(),
                    Flag::new("--reps", Kind::Positive),
                    Flag::new("--rate", Kind::Number),
                    Flag::new("--format", Kind::OneOf(&["text", "json"])),
                    Flag::new("--force", Kind::Switch),
                    SEED,
                ],
            ),
            Command::new("show", &[SEED]),
        ],
    };

    fn check(command: usize, words: &[&str]) -> Result<Args, String> {
        let words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        CLI.check(&CLI.commands[command], &words)
    }

    #[test]
    fn values_come_back_as_their_kinds() {
        let args = check(
            0,
            &[
                "--label", "a", "--reps", "3", "--force", "--label", "b", "--rate", "2.5",
                "--seed", "0", "--format", "json",
            ],
        )
        .unwrap();
        assert_eq!(args.command.name, "go");
        assert_eq!(args.all("--label"), ["a", "b"]);
        assert_eq!(args.get::<usize>("--reps"), Some(3));
        assert_eq!(args.get::<f64>("--rate"), Some(2.5));
        assert_eq!(args.get::<u64>("--seed"), Some(0));
        assert_eq!(args.get::<String>("--format").as_deref(), Some("json"));
        assert!(args.has("--force"));
        assert_eq!(args.get::<String>("--force"), None);
        let bare = check(0, &[]).unwrap();
        assert!(!bare.has("--force") && bare.all("--label").is_empty());
        assert_eq!(bare.get::<u64>("--seed"), None);
    }

    #[test]
    fn every_refusal_is_one_line_naming_the_flag() {
        for (command, words, message) in [
            (0, &["--bogus"][..], "unknown flag '--bogus'"),
            (0, &["positional"], "unknown flag 'positional'"),
            (
                1,
                &["--reps", "2"],
                "show does not take --reps (it takes --seed)",
            ),
            (
                0,
                &["--seed", "1", "--seed", "2"],
                "--seed is given more than once",
            ),
            (
                0,
                &["--force", "--force"],
                "--force is given more than once",
            ),
            (0, &["--seed"], "--seed requires a value"),
            (0, &["--seed", "--force"], "--seed requires a value"),
            (
                0,
                &["--reps", "0"],
                "--reps expects a positive integer, got '0'",
            ),
            (
                0,
                &["--reps", "-1"],
                "--reps expects a positive integer, got '-1'",
            ),
            (
                0,
                &["--seed", "x"],
                "--seed expects an unsigned integer, got 'x'",
            ),
            (0, &["--rate", "NaN"], "--rate expects a number, got 'NaN'"),
            (
                0,
                &["--format", "xml"],
                "--format expects text|json, got 'xml'",
            ),
        ] {
            let err = check(command, words).unwrap_err();
            assert_eq!(err, message, "{words:?}");
        }
    }

    #[test]
    fn lists_read_as_prose() {
        assert_eq!(and_list(&[]), "no flags");
        assert_eq!(and_list(&["--a"]), "--a");
        assert_eq!(and_list(&["--a", "--b", "--c"]), "--a, --b and --c");
    }
}
