//! Output checks, failure accounting and the simulated-output digest.
//!
//! Host time is what the benchmark measures; simulated seconds, replication
//! factors and traffic bytes are *outputs* that a host-time optimisation must
//! leave alone. Every operation therefore runs inside [`Checks::op`], which
//! counts it as attempted, counts it as failed when its check returns `Err`
//! or it panics, and folds its simulated output into an FNV-style digest
//! that a later change can compare in one line.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The repo's own quality-parity envelope (windowed vs sequential ingress,
/// incremental vs batch serving): 5 % either way of the pinned value.
pub const PARITY: f64 = 0.05;

/// 64-bit FNV-1a state (the constants of gp-store's checksums); bulk values
/// are folded a word at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer in one step (not byte by byte: the bulk arrays —
    /// a partition id per edge, a state per vertex — would otherwise make
    /// digesting a visible share of a repetition).
    pub fn u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a float by its bit pattern: "identical" means bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Attempted / failed operation counts, failure messages and the digest of
/// one repetition (or of a whole run, once repetitions are merged).
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations started.
    pub attempted: u64,
    /// Operations whose check failed, that returned `Err`, or that panicked.
    pub failed: u64,
    /// One line per failure, `label: reason`.
    pub failures: Vec<String>,
    /// Digest of everything the operations folded in.
    pub digest: Fnv,
}

impl Checks {
    /// Run one operation. `f` does the work *and* checks its output, folding
    /// the simulated results into the digest it is handed.
    pub fn op(&mut self, label: &str, f: impl FnOnce(&mut Fnv) -> Result<(), String>) {
        self.attempted += 1;
        let digest = &mut self.digest;
        let outcome = catch_unwind(AssertUnwindSafe(|| f(digest)));
        let reason = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(reason)) => reason,
            Err(panic) => {
                let text = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                format!("panicked: {text}")
            }
        };
        self.failed += 1;
        self.failures.push(format!("{label}: {reason}"));
    }

    /// Add another repetition's counts (the digest is kept per repetition by
    /// the caller; repetitions of one run must all produce the same one).
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// `Err` with a message unless `cond` holds.
pub fn ensure(cond: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(message())
    }
}

/// Values pinned in `benchmark/expected/pins.txt`: `key value` lines, `#`
/// comments. Quality pins (replication factor, imbalance) were recorded at
/// seed 42 and are compared within [`PARITY`], so they hold for any seed and
/// survive a legitimate re-pinning of kernels; digests are compared exactly
/// and only at the seed they were recorded with.
///
/// A [`Pins::recording`] set accepts every value and remembers it instead,
/// which is how the file is regenerated (`--repin 1`).
#[derive(Debug, Default)]
pub struct Pins {
    pinned: BTreeMap<String, String>,
    recorded: Option<RefCell<BTreeMap<String, String>>>,
}

impl Pins {
    /// Parse the pins file's text.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("pins line {}: expected `key value`", n + 1))?;
            map.insert(key.to_string(), value.trim().to_string());
        }
        Ok(Pins {
            pinned: map,
            recorded: None,
        })
    }

    /// A set that records what it is asked to check and passes everything.
    pub fn recording() -> Pins {
        Pins {
            pinned: BTreeMap::new(),
            recorded: Some(RefCell::default()),
        }
    }

    /// The `key value` lines a recording set has seen, in key order.
    pub fn recorded_lines(&self) -> String {
        let recorded = self.recorded.as_ref().map(RefCell::borrow);
        recorded
            .iter()
            .flat_map(|map| map.iter())
            .map(|(key, value)| format!("{key} {value}\n"))
            .collect()
    }

    /// Remember `value` under `key` if recording; says whether it did.
    pub fn record(&self, key: &str, value: impl ToString) -> bool {
        let Some(recorded) = &self.recorded else {
            return false;
        };
        recorded
            .borrow_mut()
            .insert(key.to_string(), value.to_string());
        true
    }

    /// Raw pinned text for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pinned.get(key).map(String::as_str)
    }

    /// Check `value` against the number pinned under `key`, within
    /// [`PARITY`] of it. A missing pin is a failed check, not a skipped one.
    pub fn within_parity(&self, key: &str, value: f64) -> Result<(), String> {
        if self.record(key, value) {
            return Ok(());
        }
        let pinned: f64 = self
            .get(key)
            .ok_or_else(|| format!("no pin `{key}` in expected/pins.txt"))?
            .parse()
            .map_err(|e| format!("pin `{key}` is not a number: {e}"))?;
        ensure(
            value.is_finite() && (value - pinned).abs() <= PARITY * pinned.abs(),
            || format!("{key} = {value} is outside {PARITY} of pinned {pinned}"),
        )
    }

    /// Check an exactly repeating count against its pin.
    pub fn exactly(&self, key: &str, value: u64) -> Result<(), String> {
        if self.record(key, value) {
            return Ok(());
        }
        let pinned = self
            .get(key)
            .ok_or_else(|| format!("no pin `{key}` in expected/pins.txt"))?;
        ensure(pinned == value.to_string(), || {
            format!("{key} = {value}, pinned {pinned}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_errors_and_panics_all_count_as_failed() {
        let mut c = Checks::default();
        c.op("good", |d| {
            d.u64(1);
            Ok(())
        });
        c.op("wrong |E|", |_| {
            ensure(3 == 4, || "placed 3 edges of 4".to_string())
        });
        c.op("boom", |_| panic!("index out of bounds"));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert_eq!(c.failures[0], "wrong |E|: placed 3 edges of 4");
        assert_eq!(c.failures[1], "boom: panicked: index out of bounds");
    }

    #[test]
    fn digest_depends_on_every_folded_bit() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.f64(1.5);
        b.f64(1.5 + f64::EPSILON);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.f64(1.5);
        assert_eq!(a, c);
    }

    #[test]
    fn pins_parse_and_gate_within_the_parity_envelope() {
        let pins = Pins::parse("# comment\ningress.hdrf.rf 4.0\nsuite.tables  57\n").unwrap();
        assert!(pins.within_parity("ingress.hdrf.rf", 4.19).is_ok());
        assert!(pins.within_parity("ingress.hdrf.rf", 3.81).is_ok());
        assert!(pins.within_parity("ingress.hdrf.rf", 4.21).is_err());
        assert!(pins.within_parity("ingress.hdrf.rf", f64::NAN).is_err());
        assert!(pins.within_parity("missing", 1.0).is_err());
        assert!(pins.exactly("suite.tables", 57).is_ok());
        assert!(pins.exactly("suite.tables", 58).is_err());
        assert!(Pins::parse("novalue\n").is_err());
        let recording = Pins::recording();
        assert!(recording.within_parity("b.rf", 2.5).is_ok());
        assert!(recording.exactly("a.rows", 7).is_ok());
        assert_eq!(recording.recorded_lines(), "a.rows 7\nb.rf 2.5\n");
        assert_eq!(pins.recorded_lines(), "");
    }
}
