//! Plain-text edge-list I/O.
//!
//! All of the paper's datasets "were stored in plain-text edge-list format"
//! (§4.2): one `src dst` pair per line, whitespace-separated, `#`-prefixed
//! comment lines allowed (the SNAP convention). External vertex ids may be
//! sparse; [`read_edge_list`] remaps them to a dense `0..n` space and returns
//! the mapping so results can be reported in original ids.

use crate::{CoreError, Edge, EdgeList, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

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
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, u64> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();

    let mut intern = |ext: u64| -> u64 {
        *remap.entry(ext).or_insert_with(|| {
            let dense = original_ids.len() as u64;
            original_ids.push(ext);
            dense
        })
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed.split_ascii_whitespace();
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            return Err(CoreError::Parse {
                line: lineno + 1,
                content: truncate(trimmed),
            });
        };
        let (Ok(src), Ok(dst)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(CoreError::Parse {
                line: lineno + 1,
                content: truncate(trimmed),
            });
        };
        edges.push(Edge::new(intern(src), intern(dst)));
    }

    let n = original_ids.len() as u64;
    Ok(LoadedGraph {
        graph: EdgeList::with_vertex_count(edges, n)?,
        original_ids,
    })
}

/// Read an edge list from a file path.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<LoadedGraph> {
    parse_edge_list(std::fs::File::open(path)?)
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
    let mut line = Vec::with_capacity(2 * 20 + 2);
    for e in graph.edges() {
        line.clear();
        push_decimal(&mut line, e.src.0);
        line.push(b'\t');
        push_decimal(&mut line, e.dst.0);
        line.push(b'\n');
        writer.write_all(&line)?;
    }
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

fn truncate(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        s.to_string()
    } else {
        format!("{}…", &s[..MAX])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
