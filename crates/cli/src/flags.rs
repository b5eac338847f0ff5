//! The one tokenizer and the typed getters every subcommand parses with.
//!
//! A subcommand declares the flags it takes — value flags and switches — and
//! [`Flags::tokenize`] refuses anything else, so a misspelled or borrowed
//! flag is an error instead of a silent default. Each value type (dataset,
//! cluster, strategy list, …) has exactly one parser, here.

use gp_cluster::ClusterSpec;
use gp_gen::Dataset;
use gp_partition::Strategy;
use std::str::FromStr;

/// The tokenized arguments of one subcommand.
#[derive(Debug)]
pub struct Flags {
    command: &'static str,
    /// Declared value flags and switches, space-separated.
    declared: (&'static str, &'static str),
    positional: Vec<String>,
    given: Vec<(String, Option<String>)>,
}

/// Whether the space-separated `list` of flag names holds `name`.
fn declares(list: &str, name: &str) -> bool {
    list.split_whitespace().any(|declared| declared == name)
}

/// Edit distance between two flag names (for "did you mean").
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

impl Flags {
    /// Split `args` (everything after the subcommand word) into positionals
    /// and flags. `values` (space-separated names) take the next argument as
    /// their value, `switches` take none; `-o` and `-s` are short for
    /// `--out` and `--scale`. A flag the subcommand did not declare, or one
    /// given twice, is an error.
    pub fn tokenize(
        command: &'static str,
        values: &'static str,
        switches: &'static str,
        args: &[String],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            command,
            declared: (values, switches),
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = match (arg.strip_prefix("--"), arg.strip_prefix('-')) {
                (Some(long), _) => long,
                (None, Some("o")) => "out",
                (None, Some("s")) => "scale",
                (None, Some(short)) => short,
                (None, None) => {
                    flags.positional.push(arg.clone());
                    continue;
                }
            };
            if flags.given.iter().any(|(n, _)| n == name) {
                return Err(format!("flag --{name} given twice for `{command}`"));
            }
            let value = if declares(switches, name) {
                None
            } else if declares(values, name) {
                Some(
                    it.next()
                        .ok_or_else(|| format!("{arg} needs a value"))?
                        .clone(),
                )
            } else {
                return Err(flags.unknown(name));
            };
            flags.given.push((name.to_string(), value));
        }
        Ok(flags)
    }

    fn unknown(&self, name: &str) -> String {
        let (values, switches) = self.declared;
        let hint = values
            .split_whitespace()
            .chain(switches.split_whitespace())
            .map(|known| (edit_distance(name, known), known))
            .filter(|&(distance, _)| distance <= 2)
            .min()
            .map(|(_, known)| format!(" (did you mean --{known}?)"))
            .unwrap_or_default();
        format!("unknown flag --{name} for `{}`{hint}", self.command)
    }

    /// The `index`-th positional argument; `what` names it when missing.
    pub fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        let found = self.positional.get(index).map(String::as_str);
        found.ok_or_else(|| format!("missing {what}"))
    }

    /// The raw value of a value flag, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(declares(self.declared.0, name), "undeclared --{name}");
        let found = self.given.iter().find(|(n, _)| n == name);
        found.and_then(|(_, v)| v.as_deref())
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        debug_assert!(declares(self.declared.1, name), "undeclared --{name}");
        self.given.iter().any(|(n, _)| n == name)
    }

    /// A value flag parsed by its type's own `FromStr`, if given.
    pub fn parsed<T: FromStr<Err = String>>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name).map(str::parse).transpose()
    }

    /// A numeric flag, or `default`.
    pub fn number<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(v) => v.parse().map_err(|_| format!("bad --{name} {v:?}")),
            None => Ok(default),
        }
    }

    /// A numeric flag that must satisfy `ok`; `must` completes the sentence
    /// "--name must …" when it does not.
    pub fn number_where<T: FromStr + Copy + std::fmt::Display>(
        &self,
        name: &str,
        default: T,
        ok: impl Fn(T) -> bool,
        must: &str,
    ) -> Result<T, String> {
        let v = self.number(name, default)?;
        if ok(v) {
            Ok(v)
        } else {
            Err(format!("--{name} must {must}, got {v}"))
        }
    }

    /// Partition/machine counts must fit sane simulation bounds — a typo'd
    /// count should error, not allocate gigabytes of per-partition state.
    pub fn count_or(&self, name: &str, default: u32) -> Result<u32, String> {
        let sane = |v| (1..=1_000_000).contains(&v);
        self.number_where(name, default, sane, "be between 1 and 1000000")
    }

    /// `--seed` (default 42).
    pub fn seed(&self) -> Result<u64, String> {
        self.number("seed", 42)
    }

    /// `--threads`: 0 means "all available cores", so [`Flags::count_or`]'s
    /// lower bound does not apply; capped well above any real machine.
    pub fn threads(&self) -> Result<u32, String> {
        self.number_where("threads", 1, |v| v <= 4096, "be between 0 and 4096")
    }

    /// `--scale` (default 1.0), checked by [`Dataset::check_scale`].
    pub fn scale(&self) -> Result<f64, String> {
        Dataset::check_scale(self.number("scale", 1.0)?).map_err(|e| format!("--scale {e}"))
    }

    /// `--loss-rate` (default 0 = clean network).
    pub fn loss_rate(&self) -> Result<f64, String> {
        self.number_where(
            "loss-rate",
            0.0,
            |v| (0.0..1.0).contains(&v),
            "be in [0, 1)",
        )
    }

    /// A count with a decimal suffix (`--edges 10M`), if given.
    pub fn size(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name).map(parse_size).transpose()
    }

    /// A `STEP:K`-style composite of `N` unsigned fields, if given.
    pub fn colon<const N: usize>(
        &self,
        name: &str,
        shape: &str,
    ) -> Result<Option<[u32; N]>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        let fields: Result<Vec<u32>, _> = v.split(':').map(str::parse).collect();
        let fields = fields.ok().and_then(|f| <[u32; N]>::try_from(f).ok());
        fields
            .map(Some)
            .ok_or_else(|| format!("--{name} expects {shape}, got {v:?}"))
    }

    /// The first positional argument as an owned path.
    pub fn path(&self) -> Result<String, String> {
        Ok(self.positional(0, "<graph> path")?.to_string())
    }

    /// The dataset named by the first positional argument.
    pub fn dataset(&self) -> Result<Dataset, String> {
        parse_dataset(self.positional(0, "<dataset> name")?)
    }

    /// `--cluster`, or the cluster `default` names.
    pub fn cluster_or(&self, default: &str) -> Result<ClusterSpec, String> {
        let wanted = self
            .value("cluster")
            .unwrap_or(default)
            .to_ascii_lowercase();
        let named = |(name, _): &(&str, _)| *name == wanted || name.replace('-', "") == wanted;
        let found = clusters().into_iter().find(named);
        found.map(|(_, spec)| spec).ok_or_else(|| {
            let names = clusters().map(|(name, _)| name);
            format!("unknown cluster {wanted:?} ({})", names.join("|"))
        })
    }

    /// `--strategy`, or `default` (`None`: the flag is required).
    pub fn strategy_or(&self, default: Option<Strategy>) -> Result<Strategy, String> {
        let given = self.parsed("strategy")?.or(default);
        given.ok_or_else(|| "missing --strategy".to_string())
    }

    /// `--strategies a,b,c`, or the `default` list.
    pub fn strategies_or(&self, default: &str) -> Result<Vec<Strategy>, String> {
        let list = self.value("strategies").unwrap_or(default);
        list.split(',').map(|s| s.trim().parse()).collect()
    }
}

/// Every simulated cluster by its command-line name; a name also parses
/// without its dash.
pub fn clusters() -> [(&'static str, ClusterSpec); 4] {
    [
        ("local-9", ClusterSpec::local_9()),
        ("local-10", ClusterSpec::local_10()),
        ("ec2-16", ClusterSpec::ec2_16()),
        ("ec2-25", ClusterSpec::ec2_25()),
    ]
}

/// Parse a size like `250000`, `10M`, `1.5G` into a count. Counts are
/// *decimal* (`K = 1000`); byte quantities elsewhere in the workspace parse
/// through the same helper with `SizeUnit::Binary`.
pub fn parse_size(text: &str) -> Result<u64, String> {
    let total = gp_core::units::parse_scaled(text, gp_core::units::SizeUnit::Decimal)?;
    if !(1.0..=1e13).contains(&total) {
        return Err(format!("size {text:?} out of range [1, 1e13]"));
    }
    Ok(total.round() as u64)
}

/// A dataset by its Table 4.2 name, case-insensitively.
pub fn parse_dataset(s: &str) -> Result<Dataset, String> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.spec().name.eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = Dataset::ALL.iter().map(|d| d.spec().name).collect();
            format!("unknown dataset {s:?} (one of {})", names.join(", "))
        })
}
