//! One size-suffix parser for the whole workspace.
//!
//! Two crates historically grew their own: the CLI parsed *decimal* counts
//! (`10M` edges = 10·10⁶) and the cluster tables parsed *binary* byte
//! quantities (`1.5G` = 1.5·1024³, round-tripping `fmt_bytes` output such as
//! `"1.50 GiB"`). Both now call [`parse_scaled`], which keeps the two
//! multiplier families explicit instead of letting them drift:
//! a suffix always means the same thing for a given [`SizeUnit`], and the
//! ambiguity ("does `1K` mean 1000 or 1024?") is resolved by the caller's
//! declared family, never by the input text.

/// Multiplier family for a size suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeUnit {
    /// Powers of 1000 — counts of things (edges, vertices, queries).
    Decimal,
    /// Powers of 1024 — byte quantities (`K` ≡ `KiB`).
    Binary,
}

/// Parse a scaled size: a number with an optional suffix (`250000`, `10M`,
/// `1.5G`, `2TB`, `512KiB`) or the spaced export form (`"1.50 GiB"`).
///
/// Suffixes are case-insensitive and range over the prefixes `K`/`M`/`G`/`T`.
/// [`SizeUnit::Binary`] additionally accepts the byte spellings (`B`, `KB`,
/// `KiB`, ...), which [`SizeUnit::Decimal`] rejects — a byte-flavoured suffix
/// on a count is a unit error, not a convenience. The result is finite but
/// otherwise unconstrained; range policy belongs to the caller.
pub fn parse_scaled(text: &str, unit: SizeUnit) -> Result<f64, String> {
    let t = text.trim();
    let (num, suffix) = match t.rsplit_once(' ') {
        Some((value, u)) => (value, u),
        None => {
            let split = t.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(t.len());
            t.split_at(split)
        }
    };
    let mult = multiplier(suffix, unit).ok_or_else(|| {
        let family = match unit {
            SizeUnit::Decimal => "K/M/G/T",
            SizeUnit::Binary => "B/K/M/G/T or KB/KiB forms",
        };
        format!("bad size suffix {suffix:?} in {text:?} (use {family})")
    })?;
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad size {text:?}"))?;
    let total = v * mult;
    if !total.is_finite() {
        return Err(format!("size {text:?} is not finite"));
    }
    Ok(total)
}

/// The multiplier a suffix denotes under `unit`, or `None` if the suffix is
/// unknown (or byte-flavoured in a decimal context).
fn multiplier(suffix: &str, unit: SizeUnit) -> Option<f64> {
    let up = suffix.to_ascii_uppercase();
    let (prefix, byte_form) = if let Some(p) = up.strip_suffix("IB") {
        (p, true)
    } else if let Some(p) = up.strip_suffix('B') {
        (p, true)
    } else {
        (up.as_str(), false)
    };
    if byte_form && unit == SizeUnit::Decimal {
        return None;
    }
    let base: f64 = match unit {
        SizeUnit::Decimal => 1e3,
        SizeUnit::Binary => 1024.0,
    };
    let power = match prefix {
        "" => 0,
        "K" => 1,
        "M" => 2,
        "G" => 3,
        "T" => 4,
        _ => return None,
    };
    Some(base.powi(power))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_suffixes_scale_by_powers_of_1000() {
        assert_eq!(parse_scaled("100", SizeUnit::Decimal), Ok(100.0));
        assert_eq!(parse_scaled("10K", SizeUnit::Decimal), Ok(10_000.0));
        assert_eq!(parse_scaled("1.5M", SizeUnit::Decimal), Ok(1_500_000.0));
        assert_eq!(parse_scaled("2g", SizeUnit::Decimal), Ok(2e9));
        assert_eq!(parse_scaled("1T", SizeUnit::Decimal), Ok(1e12));
    }

    #[test]
    fn binary_suffixes_scale_by_powers_of_1024() {
        assert_eq!(parse_scaled("1K", SizeUnit::Binary), Ok(1024.0));
        assert_eq!(
            parse_scaled("1.5G", SizeUnit::Binary),
            Ok(1.5 * 1024f64.powi(3))
        );
        assert_eq!(
            parse_scaled("2TB", SizeUnit::Binary),
            Ok(2.0 * 1024f64.powi(4))
        );
        assert_eq!(parse_scaled("512KiB", SizeUnit::Binary), Ok(512.0 * 1024.0));
        assert_eq!(parse_scaled("100B", SizeUnit::Binary), Ok(100.0));
        assert_eq!(parse_scaled("100", SizeUnit::Binary), Ok(100.0));
        assert_eq!(parse_scaled("0.5M", SizeUnit::Binary), Ok(512.0 * 1024.0));
        assert_eq!(parse_scaled("512K", SizeUnit::Binary), Ok(512.0 * 1024.0));
        assert_eq!(
            parse_scaled(" 1.5g ", SizeUnit::Binary),
            Ok(1.5 * 1024f64.powi(3))
        );
    }

    #[test]
    fn spaced_export_form_parses_in_binary() {
        assert_eq!(
            parse_scaled("1.50 GiB", SizeUnit::Binary),
            Ok(1.5 * 1024f64.powi(3))
        );
        assert_eq!(parse_scaled("0.00 B", SizeUnit::Binary), Ok(0.0));
        assert!(parse_scaled("12.00 QiB", SizeUnit::Binary).is_err());
    }

    #[test]
    fn byte_spellings_are_rejected_for_decimal_counts() {
        assert!(parse_scaled("100B", SizeUnit::Decimal).is_err());
        assert!(parse_scaled("1KiB", SizeUnit::Decimal).is_err());
        assert!(parse_scaled("2MB", SizeUnit::Decimal).is_err());
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in ["nope", "1..5G", "G", "", "1.5Q", "9e999"] {
            assert!(parse_scaled(bad, SizeUnit::Binary).is_err(), "{bad:?}");
            assert!(parse_scaled(bad, SizeUnit::Decimal).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_same_text_means_different_things_per_family() {
        // The whole point of the explicit family: "1K" is 1000 items but
        // 1024 bytes, and the caller decides which.
        let decimal = parse_scaled("1K", SizeUnit::Decimal).unwrap();
        let binary = parse_scaled("1K", SizeUnit::Binary).unwrap();
        assert_eq!(decimal, 1000.0);
        assert_eq!(binary, 1024.0);
    }
}
