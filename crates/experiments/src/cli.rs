//! The one command-line front end of the package's three binaries:
//! `phast-experiments`, `phast-serve` and `phast-trace`.
//!
//! Each binary's flags are declared once per *mode* — the set of flags
//! one invocation may combine — in its table here ([`PHAST_EXPERIMENTS`],
//! [`PHAST_SERVE`], [`PHAST_TRACE`]). A row holds the flag's name, its value
//! placeholder (empty for a switch) and one help line. [`Cli::parse`]
//! reads `--flag` and `--flag=VALUE` only and fails closed: an unknown
//! flag, a flag the selected mode does not read, a switch given a value,
//! a missing or malformed value, a flag given twice, or the wrong number
//! of operands exits 2 naming the argument as given. `--help` and the
//! usage lines are generated from the same tables, so they list exactly
//! what the parser accepts.
//!
//! This is the one module of the library that ends the process.

use crate::harness::exit_code;
use crate::journal::Journal;
use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::str::FromStr;

/// One flag of a mode: `--name`, its value placeholder (`N`, `DIR`;
/// `a|b|c` lists the only values accepted) or `""` for a switch, the
/// value a bare `--name` stands for (only `--synth` has one), and one
/// help line.
struct Flag {
    name: &'static str,
    value: &'static str,
    default: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag { name, value: "", default: None, help }
    }

    const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag { name, value, default: None, help }
    }

    /// `--name`, `--name=VALUE` or `--name[=VALUE]`.
    fn spelled(&self) -> String {
        match (self.value, self.default) {
            ("", _) => self.name.to_string(),
            (value, None) => format!("{}={value}", self.name),
            (value, Some(_)) => format!("{}[={value}]", self.name),
        }
    }
}

/// The flags one invocation may combine, and its operand placeholder:
/// `""` for none, a trailing `...` for one or more, otherwise exactly
/// one operand per word. In every mode of a binary but its first,
/// `flags[0]` selects the mode.
struct Mode {
    operands: &'static str,
    flags: &'static [Flag],
}

/// A binary's command line: its name, what it does, and its modes, the
/// first of which runs when no selector flag is given.
pub struct Cli {
    name: &'static str,
    about: &'static str,
    modes: &'static [Mode],
}

/// The exit-code footer of every binary's `--help`.
const EXIT_CODES: &str = "exit codes: 0 ok, 1 degraded runs (partial statistics), 2 usage error,\n\
                          3 integrity failure (corrupt journal or artifact), 4 a run hit its\n\
                          deadline, 5 a client could not reach the daemon\n";

/// `phast-experiments`: the run mode, `--verify` and the three listings.
pub static PHAST_EXPERIMENTS: Cli = Cli {
    name: "phast-experiments",
    about: "regenerate any table or figure of the paper (ids: --list-experiments)",
    modes: &[
        Mode {
            operands: "<experiment>...",
            flags: &[
                Flag::switch("--quick", "quick grid (smoke-test budget)"),
                Flag::switch("--sampled", "sampled-simulation horizon (turns sampling on)"),
                Flag::value("--windows", "N", "sampled window count (turns sampling on)"),
                Flag::value("--warm", "M", "warm-up instructions per window (turns sampling on)"),
                Flag::value("--sample-mode", "stride|phase", "place windows (turns sampling on)"),
                Flag::switch("--serial", "one worker (determinism reference)"),
                Flag::value("--workers", "N", "worker threads (default: all cores)"),
                Flag::value("--json-dir", "DIR", "where BENCH_<id>.json and journal.jsonl land"),
                Flag::switch("--no-json", "no artifacts, no journal"),
                Flag::switch("--resume", "replay DIR/journal.jsonl; run only what is missing"),
                Flag::value("--run-timeout", "SECS", "per-run watchdog; hung runs hit 'deadline'"),
                Flag::value("--max-workloads", "N", "keep the first N built-ins (0 needs --synth)"),
                Flag {
                    name: "--synth",
                    value: "N",
                    default: Some("8"),
                    help: "append N synthesized workloads (docs/TRACES.md)",
                },
            ],
        },
        Mode {
            operands: "FILE...",
            flags: &[Flag::switch("--verify", "check BENCH_<id>.json digests (0 intact, 3 not)")],
        },
        Mode { operands: "", flags: &[Flag::switch("--list-workloads", "print the workloads")] },
        Mode { operands: "", flags: &[Flag::switch("--list-predictors", "print the labels")] },
        Mode { operands: "", flags: &[Flag::switch("--list-experiments", "print the ids")] },
    ],
};

/// `phast-serve`: the daemon mode and the `--client=OP` mode.
pub static PHAST_SERVE: Cli = Cli {
    name: "phast-serve",
    about: "persistent simulation daemon and its client (docs/SERVICE.md)",
    modes: &[
        Mode {
            operands: "",
            flags: &[
                Flag::value("--addr", "HOST:PORT", "bind address (default 127.0.0.1:7878)"),
                Flag::value("--workers", "N", "worker threads per sweep (default: all cores)"),
                Flag::value("--max-active", "N", "sweeps in flight before queue-full (default 2)"),
                Flag::value("--json-dir", "DIR", "where BENCH_<id>.json and journal.jsonl land"),
                Flag::switch("--no-json", "keep artifacts in memory only (served by digest)"),
                Flag::switch("--resume", "replay DIR/journal.jsonl for resubmitted ids"),
                Flag::value("--run-timeout", "SECS", "per-cell watchdog; a hung cell degrades"),
            ],
        },
        Mode {
            operands: "",
            flags: &[
                Flag::value("--client", "ping|status|submit|fetch|shutdown", "one request"),
                Flag::value("--addr", "HOST:PORT", "daemon address (default 127.0.0.1:7878)"),
                Flag::value("--id", "ID", "submit: the sweep id (BENCH_<id>.json)"),
                Flag::value("--kinds", "A,B", "submit: predictor labels (--list-predictors)"),
                Flag::value("--budget", "TIER", "submit: full, quick (default) or bench"),
                Flag::switch("--no-watch", "submit: return once accepted"),
                Flag::value("--drop-after", "N", "submit: hang up after N cell events"),
                Flag::value("--digest", "DIGEST", "fetch: the artifact's digest"),
            ],
        },
    ],
};

/// `phast-trace`: one mode, a workload and a predictor label.
pub static PHAST_TRACE: Cli = Cli {
    name: "phast-trace",
    about: "per-interval IPC and MPKI of one workload under one predictor label",
    modes: &[Mode {
        operands: "<workload> <predictor>",
        flags: &[
            Flag::value("--insts", "N", "instructions to simulate (default 300000)"),
            Flag::value("--interval", "N", "instructions per line (default 20000, at least 1000)"),
            Flag::value("--config", "alderlake|skylake|haswell|nehalem", "default: alderlake"),
        ],
    }],
};

impl Cli {
    /// The usage lines, one per mode.
    fn usage(&self) -> String {
        let mut out = String::new();
        for (i, mode) in self.modes.iter().enumerate() {
            let lead = format!("{} {}", if i == 0 { "usage:" } else { "      " }, self.name);
            let indent = " ".repeat(lead.len() + 1);
            let mut words: Vec<String> =
                mode.flags.iter().map(|f| format!("[{}]", f.spelled())).collect();
            if i > 0 {
                words[0] = mode.flags[0].spelled();
            }
            words.extend((!mode.operands.is_empty()).then(|| mode.operands.to_string()));
            let mut col = lead.len();
            out.push_str(&lead);
            for word in words {
                if col + 1 + word.len() > 79 {
                    out.push('\n');
                    out.push_str(&indent);
                    col = indent.len();
                } else {
                    out.push(' ');
                    col += 1;
                }
                out.push_str(&word);
                col += word.len();
            }
            out.push('\n');
        }
        out
    }

    /// The `--help` text: usage lines, every mode's flags with their help
    /// lines, and the exit codes.
    fn help(&self) -> String {
        let mut out = format!("{} — {}\n\n{}", self.name, self.about, self.usage());
        for mode in self.modes {
            out.push('\n');
            for flag in mode.flags {
                let _ = writeln!(out, "  {:22} {}", flag.spelled(), flag.help);
            }
        }
        out.push('\n');
        out + EXIT_CODES
    }

    /// Parses this process's arguments. `--help` (or `-h`) anywhere
    /// prints the help text and exits 0; a refused command line prints
    /// the reason and the usage lines and exits 2.
    pub fn parse(&'static self) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            crate::report!("{}", self.help().trim_end());
            std::process::exit(exit_code::OK);
        }
        self.try_parse(args).unwrap_or_else(|reason| self.reject(&reason))
    }

    /// [`Cli::parse`] over `args`, without the process exit: `Err` says
    /// why the command line is refused, naming the argument as given.
    fn try_parse(&'static self, args: Vec<String>) -> Result<Args, String> {
        let selects = |arg: &str, m: &Mode| arg.split('=').next() == Some(m.flags[0].name);
        let mode = args
            .iter()
            .find_map(|a| self.modes.iter().skip(1).position(|m| selects(a, m)))
            .map_or(0, |i| i + 1);
        let flags = self.modes[mode].flags;
        let mut parsed = Args { cli: self, mode, given: Vec::new(), operands: Vec::new() };
        for arg in args {
            if !arg.starts_with("--") {
                parsed.operands.push(arg);
                continue;
            }
            let (name, value) =
                arg.split_once('=').map_or((arg.as_str(), None), |(n, v)| (n, Some(v)));
            let Some(flag) = flags.iter().find(|f| f.name == name) else {
                let owner = self.modes.iter().find(|m| m.flags.iter().any(|f| f.name == name));
                return Err(match owner {
                    None => format!("unknown flag '{arg}'"),
                    Some(_) if mode > 0 => format!("{arg}: not accepted with {}", flags[0].name),
                    Some(m) => format!("{arg}: only accepted with {}", m.flags[0].name),
                });
            };
            if parsed.given.iter().any(|(given, ..)| *given == name) {
                return Err(format!("{arg}: {name} given twice"));
            }
            let expects = || format!("{arg}: expects {}", flag.spelled());
            let value = match (flag.value, value) {
                ("", None) => "",
                ("", Some(_)) => return Err(format!("{arg}: {name} takes no value")),
                (_, None) => flag.default.ok_or_else(expects)?,
                (_, Some("")) => return Err(expects()),
                (list, Some(v)) if list.contains('|') && !list.split('|').any(|c| c == v) => {
                    return Err(format!("{arg}: expects one of {list}"));
                }
                (_, Some(v)) => v,
            }
            .to_string();
            parsed.given.push((flag.name, arg, value));
        }
        let operands = self.modes[mode].operands;
        let count = parsed.operands.len();
        let fits = match operands.strip_suffix("...") {
            Some(_) => count > 0,
            None => count == operands.split_whitespace().count(),
        };
        if !fits {
            return Err(match (operands, parsed.operands.first()) {
                ("", Some(extra)) => format!("unexpected operand '{extra}'"),
                _ => format!("expects {operands}, got {count} operand(s)"),
            });
        }
        Ok(parsed)
    }

    /// Prints `error: {reason}` and the usage lines, and exits 2.
    fn reject(&self, reason: &str) -> ! {
        crate::diag!("error: {reason}\n{}(--help for every flag and the exit codes)", self.usage());
        std::process::exit(exit_code::USAGE)
    }
}

/// A command line [`Cli::parse`] accepted.
pub struct Args {
    cli: &'static Cli,
    mode: usize,
    /// `(flag name, argument as given, value)`; the value of a switch is
    /// empty.
    given: Vec<(&'static str, String, String)>,
    /// The positional operands, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// The flag that selected the mode, or `""` for a binary's first
    /// mode.
    pub fn mode(&self) -> &'static str {
        if self.mode == 0 {
            ""
        } else {
            self.cli.modes[self.mode].flags[0].name
        }
    }

    /// The argument as given and the value of flag `name`, if given.
    ///
    /// # Panics
    ///
    /// If `name` is not a flag of the selected mode: a binary reading a
    /// flag its table does not declare is a bug.
    fn get(&self, name: &str) -> Option<(&str, &str)> {
        let declared = self.cli.modes[self.mode].flags.iter().any(|f| f.name == name);
        assert!(declared, "{name} is not a flag of this mode of {}", self.cli.name);
        let (_, arg, value) = self.given.iter().find(|(given, ..)| *given == name)?;
        Some((arg, value))
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.get(name).map(|(_, value)| value)
    }

    /// The value of flag `name` as an integer of at least `least`, if
    /// given; exits 2 naming the argument when it is not one.
    pub fn number<T: FromStr + PartialOrd + Display>(&self, name: &str, least: T) -> Option<T> {
        let (arg, value) = self.get(name)?;
        match value.parse::<T>() {
            Ok(n) if n >= least => Some(n),
            _ => self.reject(&format!("{arg}: expects an integer of at least {least}")),
        }
    }

    /// Exits 2 when both `a` and `b` were given, naming `b` as given.
    pub fn exclusive(&self, a: &str, b: &str) {
        if let (Some(_), Some((arg, _))) = (self.get(a), self.get(b)) {
            self.reject(&format!("{arg}: cannot be combined with {a}"));
        }
    }

    /// Prints `error: {reason}` and the usage lines, and exits 2.
    pub fn reject(&self, reason: &str) -> ! {
        self.cli.reject(reason)
    }

    /// The artifact directory and journal of a long-running binary:
    /// `journal.jsonl` in `--json-dir` (default: the working directory),
    /// created afresh, or replayed under `--resume` if its header
    /// carries `fingerprint`. `None` under `--no-json`, which refuses
    /// the other two flags (exit 2). A journal that cannot be created or
    /// resumed exits 3.
    pub fn journal(&self, fingerprint: &str) -> Option<(PathBuf, Journal)> {
        if self.has("--no-json") {
            self.exclusive("--no-json", "--resume");
            self.exclusive("--no-json", "--json-dir");
            return None;
        }
        let dir = PathBuf::from(self.value("--json-dir").unwrap_or("."));
        let path = dir.join("journal.jsonl");
        let resume = self.has("--resume");
        let open = if resume { Journal::resume } else { Journal::create };
        match open(&path, fingerprint) {
            Ok(journal) => {
                if resume {
                    crate::diag!(
                        "resuming from {} ({} completed run(s) will be replayed)",
                        path.display(),
                        journal.completed_runs()
                    );
                }
                Some((dir, journal))
            }
            Err(e) => {
                crate::diag!("error: journal {}: {e}", path.display());
                std::process::exit(exit_code::INTEGRITY)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--name`, or `--name=V` with `V` a value the flag accepts.
    fn given(f: &Flag) -> String {
        match f.value.split('|').next() {
            Some("") | None => f.name.to_string(),
            Some(v) => format!("{}={v}", f.name),
        }
    }

    /// A command line of `mode` giving `flag`, after the mode's selector,
    /// with as many operands as the mode wants.
    fn line(cli: &Cli, mode: usize, flag: &Flag) -> Vec<String> {
        let m = &cli.modes[mode];
        let selector = (mode > 0 && flag.name != m.flags[0].name).then(|| given(&m.flags[0]));
        let n = if m.operands.ends_with("...") { 1 } else { m.operands.split_whitespace().count() };
        let operands = std::iter::repeat_n("x".to_string(), n);
        selector.into_iter().chain([given(flag)]).chain(operands).collect()
    }

    /// The words of `text`, taking `[`, `]` and `=` as spaces.
    fn words(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| c.is_whitespace() || "[]=".contains(c)).filter(|w| !w.is_empty())
    }

    /// The `--flag` names among `words`.
    fn flags_in<'a>(words: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
        words.filter(|w| w.starts_with("--")).collect()
    }

    #[test]
    fn help_and_usage_list_exactly_the_flags_the_parser_accepts() {
        for cli in [&PHAST_EXPERIMENTS, &PHAST_SERVE, &PHAST_TRACE] {
            let (usage, next_mode) = (cli.usage(), format!("       {} ", cli.name));
            let mut usage_lines = usage.split(next_mode.as_str());
            let help = cli.help();
            let mut sections = help.split("\n\n").skip(2);
            for (i, mode) in cli.modes.iter().enumerate() {
                let names: Vec<&str> = mode.flags.iter().map(|f| f.name).collect();
                let text = usage_lines.next().expect("one usage line per mode");
                assert_eq!(flags_in(words(text)), names, "{} usage: {text}", cli.name);
                // A help line starts with its flag.
                let text = sections.next().expect("one help section per mode");
                let first_words = text.lines().filter_map(|l| words(l).next());
                assert_eq!(flags_in(first_words), names, "{} help: {text}", cli.name);
                for flag in mode.flags {
                    let argv = line(cli, i, flag);
                    let mode = cli.try_parse(argv.clone()).map(|args| args.mode);
                    assert_eq!(mode, Ok(i), "{argv:?}");
                }
                // A flag of another mode is refused, unless it selects that mode.
                for other in cli.modes.iter().flat_map(|m| m.flags) {
                    let selector = cli.modes[1..].iter().any(|m| m.flags[0].name == other.name);
                    if !names.contains(&other.name) && !selector {
                        let argv = [vec![given(other)], line(cli, i, &mode.flags[0])].concat();
                        assert!(cli.try_parse(argv.clone()).is_err(), "{argv:?} accepted");
                    }
                }
            }
            assert!(usage_lines.next().is_none(), "{usage}");
            assert!(sections.next().is_some_and(|s| s.starts_with("exit codes")), "{help}");
        }
    }

    #[test]
    fn refusals_name_the_argument_as_given() {
        let parse = |cli: &'static Cli, argv: &[&str]| {
            cli.try_parse(argv.iter().map(|a| a.to_string()).collect())
        };
        let (exp, serve, trace) = (&PHAST_EXPERIMENTS, &PHAST_SERVE, &PHAST_TRACE);
        for (cli, argv, reason) in [
            (exp, &["--quick=1", "fig1"][..], "--quick=1: --quick takes no value"),
            (exp, &["--json-dir", "fig1"], "--json-dir: expects --json-dir=DIR"),
            (exp, &["--json-dir=", "fig1"], "--json-dir=: expects --json-dir=DIR"),
            (exp, &["--sample-mode=phased", "fig1"], "--sample-mode=phased: expects one"),
            (exp, &["--quick"], "expects <experiment>..., got 0 operand(s)"),
            (exp, &["--quick", "--verify", "x"], "--quick: not accepted with --verify"),
            (exp, &["--list-experiments="], "--list-experiments takes no value"),
            (exp, &["--list-workloads", "--list-predictors"], "--list-predictors: not"),
            (exp, &["--list-workloads", "fig1"], "unexpected operand 'fig1'"),
            (serve, &["--kinds=phast"], "--kinds=phast: only accepted with --client"),
            (serve, &["--client=frob"], "--client=frob: expects one of ping|status"),
            (trace, &["gcc_1"], "expects <workload> <predictor>, got 1 operand(s)"),
        ] {
            let e = parse(cli, argv).err().unwrap_or_else(|| panic!("{argv:?} accepted"));
            assert!(e.contains(reason), "{argv:?}: {e}");
        }
        let args = parse(exp, &["--synth", "fig1"]).expect("bare --synth");
        assert_eq!(args.value("--synth"), Some("8"));
        assert_eq!(args.operands, ["fig1"]);
        let args = parse(exp, &["--verify", "a", "b"]).expect("two files");
        assert_eq!((args.mode(), args.operands.len()), ("--verify", 2));
    }
}
