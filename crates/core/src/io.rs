//! Plain-text edge-list I/O.
//!
//! All of the paper's datasets "were stored in plain-text edge-list format"
//! (§4.2): one `src dst` pair per line, whitespace-separated, `#`-prefixed
//! comment lines allowed (the SNAP convention). External vertex ids may be
//! sparse; [`read_edge_list`] remaps them to a dense `0..n` space and returns
//! the mapping so results can be reported in original ids.
//!
//! The reader takes the input in blocks of `BLOCK` bytes and splits lines
//! in place. A plain line — ASCII digits, spaces and tabs, an optional `\r`,
//! and any ASCII after the second field — is parsed straight from the bytes.
//! Every other line (blank, comment, non-ASCII, `+`, `\x0B`, `\x0C`, an id of
//! more than 19 digits, ...) goes through `parse_line` after a UTF-8 check.
//! Either way a file is accepted, rejected and reported exactly as a
//! `BufRead::lines` loop over `parse_line` would; the tests keep that loop
//! as the oracle.

use crate::{CoreError, Edge, EdgeList, Result};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

/// Bytes asked of the reader per `read`. A line longer than this grows the
/// buffer to hold it.
const BLOCK: usize = 1 << 18;

/// Digits a plain line's id may have: every 19-digit number fits a `u64`.
const PLAIN_DIGITS: usize = 19;

/// Outcome of loading an edge list: the dense graph plus the original ids,
/// indexed by dense id.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The graph with dense vertex ids.
    pub graph: EdgeList,
    /// `original_ids[dense] = external id as it appeared in the file`.
    pub original_ids: Vec<u64>,
}

/// Parse an edge list from any reader. Lines starting with `#` or `%` are
/// comments; blank lines are skipped; fields are split on ASCII whitespace;
/// extra fields (e.g. weights) are ignored.
pub fn parse_edge_list<R: Read>(reader: R) -> Result<LoadedGraph> {
    parse_blocks(reader, BLOCK)
}

/// Read an edge list from a file path.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<LoadedGraph> {
    parse_edge_list(std::fs::File::open(path)?)
}

/// [`parse_edge_list`] with `block` bytes asked per `read`.
fn parse_blocks<R: Read>(mut reader: R, block: usize) -> Result<LoadedGraph> {
    let mut buf = vec![0u8; block];
    // `buf[..held]` is the start of a line whose `\n` has not been read yet.
    let mut held = 0;
    let mut lines = Lines::default();
    loop {
        if held == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let read = match reader.read(&mut buf[held..]) {
            Ok(0) => break,
            Ok(read) => read,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let end = held + read;
        // Parse every complete line now, as `lines()` would before its next
        // read, so a bad line is reported ahead of a later read error.
        match buf[held..end].iter().rposition(|&b| b == b'\n') {
            Some(at) => {
                let cut = held + at + 1;
                lines.parse(&buf[..cut])?;
                buf.copy_within(cut..end, 0);
                held = end - cut;
            }
            None => held = end,
        }
    }
    // A last line without a final `\n`.
    lines.parse(&buf[..held])?;
    let n = lines.ids.original.len() as u64;
    Ok(LoadedGraph {
        graph: EdgeList::new(lines.edges, n),
        original_ids: lines.ids.original,
    })
}

/// The reader's state between blocks.
#[derive(Default)]
struct Lines {
    /// Lines seen so far, so the 1-based number of the last one.
    seen: usize,
    edges: Vec<Edge>,
    ids: DenseIds,
}

impl Lines {
    /// Parse `text`: whole lines, each ending in `\n` except perhaps the last.
    fn parse(&mut self, text: &[u8]) -> Result<()> {
        let mut at = 0;
        while at < text.len() {
            self.seen += 1;
            let rest = &text[at..];
            if let Some((src, dst, len)) = plain_line(rest) {
                self.push(src, dst);
                at += len;
                continue;
            }
            let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            // The error `BufRead::lines` raises for the same bytes.
            let line = std::str::from_utf8(&rest[..len]).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            if let Some((src, dst)) = parse_line(self.seen, line)? {
                self.push(src, dst);
            }
            at += len + 1;
        }
        Ok(())
    }

    #[inline]
    fn push(&mut self, src: u64, dst: u64) {
        let src = self.ids.intern(src);
        let dst = self.ids.intern(dst);
        self.edges.push(Edge::new(src, dst));
    }
}

/// A plain line at the start of `text`: `(src, dst, bytes up to and
/// including its \n)`, or `None` when the line needs [`parse_line`].
#[inline]
fn plain_line(text: &[u8]) -> Option<(u64, u64, usize)> {
    let mut at = 0;
    let src = plain_id(text, &mut at)?;
    if !matches!(text.get(at), Some(b' ' | b'\t')) {
        return None;
    }
    let dst = plain_id(text, &mut at)?;
    match text.get(at) {
        None => Some((src, dst, at)),
        Some(b'\n') => Some((src, dst, at + 1)),
        Some(b' ' | b'\t' | b'\r') => {
            let len = text[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |nl| at + nl + 1);
            text[at..len].is_ascii().then_some((src, dst, len))
        }
        Some(_) => None,
    }
}

/// Spaces and tabs, then 1 to `PLAIN_DIGITS` ASCII digits from `text[*at..]`;
/// `*at` moves past them.
#[inline]
fn plain_id(text: &[u8], at: &mut usize) -> Option<u64> {
    while matches!(text.get(*at), Some(b' ' | b'\t')) {
        *at += 1;
    }
    let start = *at;
    let mut x: u64 = 0;
    while let Some(&b) = text.get(*at) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        x = x.wrapping_mul(10).wrapping_add(digit as u64);
        *at += 1;
    }
    (1..=PLAIN_DIGITS).contains(&(*at - start)).then_some(x)
}

/// One line as `BufRead::lines` yields it: `None` for a blank or comment
/// line, the two ids of an edge line, or the parse error naming `lineno`.
fn parse_line(lineno: usize, line: &str) -> Result<Option<(u64, u64)>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let malformed = || CoreError::Parse {
        line: lineno,
        content: truncate(trimmed),
    };
    let mut fields = trimmed.split_ascii_whitespace();
    let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
        return Err(malformed());
    };
    let (Ok(src), Ok(dst)) = (a.parse::<u64>(), b.parse::<u64>()) else {
        return Err(malformed());
    };
    Ok(Some((src, dst)))
}

/// Dense ids in first-appearance order. An external id below
/// `4·ids + 2^20` (ids = distinct ids so far) is looked up in a direct
/// table; any other in a `HashMap`. So the table never holds more than
/// 4 slots per id plus 2^20, and a hostile id costs one map entry.
#[derive(Default)]
struct DenseIds {
    /// `table[ext]` = dense id, or [`DenseIds::NONE`].
    table: Vec<u32>,
    /// Ids the table did not cover when they first appeared.
    map: HashMap<u64, u64>,
    /// `original[dense]` = external id.
    original: Vec<u64>,
}

impl DenseIds {
    const NONE: u32 = u32::MAX;

    #[inline]
    fn intern(&mut self, ext: u64) -> u64 {
        if ext < self.table.len() as u64 {
            let dense = self.table[ext as usize];
            if dense != Self::NONE {
                return dense as u64;
            }
        }
        self.intern_uncached(ext)
    }

    fn intern_uncached(&mut self, ext: u64) -> u64 {
        let next = self.original.len() as u64;
        let bound = next
            .saturating_mul(4)
            .saturating_add(1 << 20)
            .min(Self::NONE as u64 - 1);
        if ext >= bound || next >= Self::NONE as u64 {
            return *self.map.entry(ext).or_insert_with(|| {
                self.original.push(ext);
                next
            });
        }
        let slot = ext as usize;
        if slot >= self.table.len() {
            let len = (slot + 1).max(2 * self.table.len()).min(bound as usize);
            self.table.resize(len, Self::NONE);
        }
        // An id first seen above the bound of its day moves from the map.
        let moved = if self.map.is_empty() {
            None
        } else {
            self.map.remove(&ext)
        };
        let dense = moved.unwrap_or_else(|| {
            self.original.push(ext);
            next
        });
        self.table[slot] = dense as u32;
        dense
    }
}

/// Append the decimal digits of `x` to `buf`: the bytes `x.to_string()`
/// would produce, without the `String`. Every text writer in the repo that
/// emits one number per edge or per id formats through this.
#[inline]
pub fn push_decimal(buf: &mut Vec<u8>, mut x: u64) {
    if x < 100 {
        // Partition ids — the bulk of a partition file — land here, and
        // whether one has one digit or two is a coin flip per id. So no
        // branch on it: write two bytes, keep one or both.
        let (tens, ones) = (b'0' + (x / 10) as u8, b'0' + (x % 10) as u8);
        let two = x >= 10;
        let len = buf.len();
        buf.extend_from_slice(&[if two { tens } else { ones }, ones]);
        buf.truncate(len + 1 + two as usize);
        return;
    }
    // u64::MAX has 20 digits; fill from the back, least significant first.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while x > 0 {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Write a graph as a plain-text edge list (dense ids, one edge per line).
pub fn write_edge_list<W: Write>(graph: &EdgeList, mut writer: W) -> Result<()> {
    /// Bytes formatted before each `write_all`.
    const WRITE_BLOCK: usize = 1 << 16;
    /// The longest line: two 20-digit ids, a tab and a newline.
    const LINE: usize = 2 * 20 + 2;
    let mut block = Vec::with_capacity(WRITE_BLOCK);
    for e in graph.edges() {
        push_decimal(&mut block, e.src.0);
        block.push(b'\t');
        push_decimal(&mut block, e.dst.0);
        block.push(b'\n');
        if block.len() > WRITE_BLOCK - LINE {
            writer.write_all(&block)?;
            block.clear();
        }
    }
    writer.write_all(&block)?;
    // A `BufWriter` passed by value would swallow its last write error on drop.
    writer.flush()?;
    Ok(())
}

/// Map a dense-id edge back to original external ids.
pub fn to_original(edge: Edge, original_ids: &[u64]) -> (u64, u64) {
    (
        original_ids[edge.src.index()],
        original_ids[edge.dst.index()],
    )
}

/// `s`, cut to at most 60 bytes (at a char boundary) with a `…` after a cut.
fn truncate(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rng, Splitmix64};
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn parses_simple_edge_list() {
        let text = "0 1\n1 2\n2 0\n";
        let loaded = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.graph.num_vertices(), 3);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# SNAP header\n% matrix-market style\n\n10 20\n20 30\n";
        let loaded = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
    }

    #[test]
    fn remaps_sparse_ids_densely_and_keeps_originals() {
        let text = "100 7\n7 5000\n";
        let loaded = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.original_ids, vec![100, 7, 5000]);
        let back: Vec<_> = loaded
            .graph
            .edges()
            .iter()
            .map(|&e| to_original(e, &loaded.original_ids))
            .collect();
        assert_eq!(back, vec![(100, 7), (7, 5000)]);
    }

    #[test]
    fn tolerates_extra_fields_like_weights() {
        let text = "0 1 3.5\n1 2 0.25\n";
        let loaded = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let text = "0 1\nnot an edge\n";
        let err = parse_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "got: {err}");
    }

    #[test]
    fn rejects_single_field_lines() {
        let err = parse_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CoreError::Parse { line: 1, .. }));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = parse_edge_list(&buf[..]).unwrap();
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        assert_eq!(loaded.graph.num_vertices(), g.num_vertices());
        assert_eq!(loaded.graph.edges(), g.edges());
    }

    #[test]
    fn push_decimal_matches_to_string() {
        let edges = [u32::MAX as u64, u64::MAX];
        for x in (0..=1_000).chain(edges) {
            let mut buf = b"x".to_vec();
            push_decimal(&mut buf, x);
            assert_eq!(buf, format!("x{x}").into_bytes());
        }
    }

    /// The formatter `write_edge_list` used before `push_decimal`.
    fn write_edge_list_oracle(graph: &EdgeList) -> Vec<u8> {
        let mut out = String::new();
        for e in graph.edges() {
            out.push_str(&e.src.0.to_string());
            out.push('\t');
            out.push_str(&e.dst.0.to_string());
            out.push('\n');
        }
        out.into_bytes()
    }

    #[test]
    fn write_edge_list_bytes_match_the_old_formatter() {
        // Ids cross 9 -> 10 and 99 -> 100 on both sides of the tab.
        let pairs: Vec<(u64, u64)> = (0..=101).map(|v| (v, 101 - v)).collect();
        for g in [EdgeList::from_pairs(pairs), EdgeList::from_pairs(vec![])] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            assert_eq!(buf, write_edge_list_oracle(&g));
        }
    }

    #[test]
    fn a_malformed_non_ascii_line_is_a_parse_error() {
        let text = format!("0 1\na{}\n", "€".repeat(30));
        let err = parse_edge_list(text.as_bytes()).unwrap_err();
        let CoreError::Parse { line, content } = &err else {
            panic!("expected a parse error, got {err}");
        };
        assert_eq!(*line, 2);
        // 'a' and 19 whole euro signs are 58 bytes; the 20th would end at 61.
        assert_eq!(*content, format!("a{}…", "€".repeat(19)));
    }

    #[test]
    fn truncate_cuts_at_the_last_char_boundary() {
        assert_eq!(truncate("short"), "short");
        assert_eq!(truncate(&"x".repeat(60)), "x".repeat(60));
        assert_eq!(truncate(&"x".repeat(61)), format!("{}…", "x".repeat(60)));
        let s = format!("{}€", "x".repeat(59));
        assert_eq!(truncate(&s), format!("{}…", "x".repeat(59)));
    }

    #[test]
    fn lines_longer_than_the_block_and_split_across_reads_parse() {
        let comment = format!("# {}\n", "c".repeat(100));
        let text = format!("{comment}1 2\r\n  3\t4 0.5\n{comment}5 1048576\n6 7");
        for block in [1, 2, 3, 7, 64, BLOCK] {
            let loaded = parse_blocks(text.as_bytes(), block).unwrap();
            assert_eq!(loaded.original_ids, vec![1, 2, 3, 4, 5, 1048576, 6, 7]);
            assert_eq!(loaded.graph.num_edges(), 4);
        }
    }

    #[test]
    fn an_id_first_kept_in_the_map_keeps_its_dense_id_in_the_table() {
        // 1048576 = 2^20 is past the table's bound while no id is known, and
        // within it once one is; the proptest below leaves it out, as each
        // file holding it would fill a 4 MiB table.
        for text in [
            "1048576 0\n0 1048576\n",
            "1048576 1048580\n1048580 1048576\n0 1048576\n1048579 1\n",
            "1048580 1048576\n7 1048580\n1048576 7\n",
        ] {
            let got = parse_edge_list(text.as_bytes());
            same_outcome(text.as_bytes(), &parse_by_lines(text.as_bytes()), got);
        }
        let loaded = parse_edge_list("1048576 0\n0 1048576\n".as_bytes()).unwrap();
        assert_eq!(loaded.original_ids, vec![1048576, 0]);
    }

    /// The reader before blocks: `BufRead::lines` into [`parse_line`], ids
    /// interned through a `HashMap`.
    fn parse_by_lines<R: Read>(reader: R) -> Result<LoadedGraph> {
        let mut remap: HashMap<u64, u64> = HashMap::new();
        let mut original_ids: Vec<u64> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut intern = |ext: u64| -> u64 {
            *remap.entry(ext).or_insert_with(|| {
                original_ids.push(ext);
                original_ids.len() as u64 - 1
            })
        };
        for (lineno, line) in BufReader::new(reader).lines().enumerate() {
            if let Some((src, dst)) = parse_line(lineno + 1, &line?)? {
                edges.push(Edge::new(intern(src), intern(dst)));
            }
        }
        let n = original_ids.len() as u64;
        Ok(LoadedGraph {
            graph: EdgeList::with_vertex_count(edges, n)?,
            original_ids,
        })
    }

    /// A reader that hands out 1 to 7 bytes per `read` and fails one `read`
    /// with `Interrupted`.
    struct Trickle<'a> {
        data: &'a [u8],
        sizes: Splitmix64,
        interrupt_in: u64,
    }

    impl<'a> Trickle<'a> {
        fn new(data: &'a [u8], seed: u64) -> Self {
            let mut sizes = Splitmix64::new(seed);
            let interrupt_in = sizes.next_below(8);
            Trickle {
                data,
                sizes,
                interrupt_in,
            }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_in == 0 {
                self.interrupt_in = u64::MAX;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.interrupt_in = self.interrupt_in.saturating_sub(1);
            let n = (1 + self.sizes.next_below(7) as usize)
                .min(buf.len())
                .min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    // Each menu lists first the pieces that keep any line well formed (the
    // first `WELL_FORMED` entries), then the ones that may not.
    const LEADS: [&[u8]; 12] = [
        b"",
        b" ",
        b"\t",
        b" \t ",
        b"\x0B",
        b"\x0C",
        "\u{A0}".as_bytes(),
        b"\r",
        b"#",
        b"%",
        b"+",
        b"-",
    ];
    const FIELDS: [&[u8]; 28] = [
        b"0",
        b"1",
        b"2",
        b"7",
        b"42",
        b"999",
        b"65535",
        b"65536",
        b"4294967295",
        b"4294967296",
        b"1099511627776",
        b"9999999999999999999",
        b"18446744073709551615",
        b"12345678901234567890",
        b"000000000000000000007",
        b"+5",
        b"18446744073709551616",
        b"123456789012345678901",
        b"-1",
        b"a",
        "€".as_bytes(),
        b"\xFF",
        b"",
        b"1a",
        b"0x10",
        b"#",
        b"%",
        "1\u{A0}".as_bytes(),
    ];
    const SEPS: [&[u8]; 9] = [
        b" ",
        b"\t",
        b" \t",
        b"\r",
        b"\x0C",
        b"",
        b"\x0B",
        "\u{A0}".as_bytes(),
        b",",
    ];
    const TAILS: [&[u8]; 11] = [
        b"",
        b" 0.5",
        b"\t3 4",
        b"\r",
        " €".as_bytes(),
        b" #",
        b"\x0C9",
        b"\x0B",
        "\u{A0}".as_bytes(),
        b"\x0Bx",
        b" \xFF",
    ];
    const EOLS: [&[u8]; 5] = [b"\n", b"\r\n", b"\n\n", b"\r\r\n", b""];
    const WELL_FORMED: [usize; 5] = [11, 15, 5, 9, 4];

    fn same_outcome(text: &[u8], reference: &Result<LoadedGraph>, got: Result<LoadedGraph>) {
        match (reference, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got.graph.edges(), want.graph.edges(), "{text:?}");
                assert_eq!(got.graph.num_vertices(), want.graph.num_vertices());
                assert_eq!(got.original_ids, want.original_ids, "{text:?}");
            }
            (Err(want), Err(got)) => assert_eq!(got.to_string(), want.to_string(), "{text:?}"),
            (want, got) => panic!("{text:?}: reference {want:?}, blocks {got:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn blocks_accept_reject_and_report_what_lines_did(
            lines in proptest::collection::vec(
                (0usize..LEADS.len(), 0usize..FIELDS.len(), 0usize..SEPS.len(),
                 0usize..FIELDS.len(), 0usize..TAILS.len() * EOLS.len()),
                0..24,
            ),
            seed in 0u64..u64::MAX,
            block in 1usize..48,
            bad in (0usize..24, 0usize..6),
            shape in 0u8..6,
        ) {
            // Every piece is well formed (shapes 0, 1), the one at `bad` is
            // drawn from the rest of its menu (2, 3), or any piece may be
            // anything (4, 5). Odd shapes drop the final `\n`.
            let menus = [&LEADS[..], &FIELDS, &SEPS, &TAILS, &EOLS];
            let mut text = Vec::new();
            for (i, &(lead, src, sep, dst, end)) in lines.iter().enumerate() {
                let (tail, eol) = (end / EOLS.len(), end % EOLS.len());
                let pieces = [(0, lead), (1, src), (2, sep), (1, dst), (3, tail), (4, eol)];
                for (j, (m, ix)) in pieces.into_iter().enumerate() {
                    let (menu, well_formed) = (menus[m], WELL_FORMED[m]);
                    let ix = if shape >= 4 {
                        ix
                    } else if shape >= 2 && (i, j) == (bad.0 % lines.len(), bad.1) {
                        well_formed + ix % (menu.len() - well_formed)
                    } else {
                        ix % well_formed
                    };
                    text.extend_from_slice(menu[ix]);
                }
            }
            if shape % 2 == 1 && text.last() == Some(&b'\n') {
                text.pop();
            }
            let reference = parse_by_lines(Trickle::new(&text, seed));
            same_outcome(&text, &reference, parse_blocks(Trickle::new(&text, seed), block));
            same_outcome(&text, &reference, parse_edge_list(Trickle::new(&text, seed)));
            same_outcome(&text, &reference, parse_edge_list(&text[..]));
        }
    }
}
