//! Saving and reloading partitionings.
//!
//! §5.4.3: "When a graph may be partitioned, saved to disk, and reused
//! later, such cases should be treated similar to the high compute/ingress
//! ratio case ... and lower replication factor should be the priority."
//! This module provides the save/reuse mechanism: a compact text format
//! holding the per-edge partition choices and per-vertex masters, so a
//! partitioning computed once (e.g. by a slow, high-quality strategy) can be
//! reloaded against the same edge stream without re-running the strategy.
//!
//! Format (line-oriented, `#`-comments allowed):
//!
//! ```text
//! distgraph-partition v1
//! partitions <P>             (1 ..= 65536; each count header exactly once)
//! edges <M>
//! vertices <N>
//! e <p0> <p1> ... <pM-1>     (may repeat; chunks concatenate)
//! m <m0> <m1> ... <mN-1>     (may repeat; chunks concatenate)
//! ```

use crate::assignment::Assignment;
use gp_core::io::push_decimal;
use gp_core::{CoreError, PartitionId, Result, StreamingEdges, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &str = "distgraph-partition v1";
const CHUNK: usize = 4096;
/// Largest `partitions <P>` a partition file may declare (a format limit;
/// the largest count used anywhere in this repo is 300).
pub const MAX_PARTITIONS: u32 = 1 << 16;

/// Serialize an assignment. Ids are formatted straight into one line buffer
/// that every chunk reuses, and each line goes out in one `write_all`.
pub fn write_assignment<W: Write>(assignment: &Assignment, mut w: W) -> Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "partitions {}", assignment.num_partitions())?;
    writeln!(w, "edges {}", assignment.num_edges())?;
    writeln!(w, "vertices {}", assignment.num_vertices())?;
    let mut line: Vec<u8> = Vec::new();
    let mut write_ids = |tag: u8, ids: &[PartitionId]| -> Result<()> {
        for chunk in ids.chunks(CHUNK) {
            line.clear();
            line.push(tag);
            for p in chunk {
                line.push(b' ');
                push_decimal(&mut line, p.0 as u64);
            }
            line.push(b'\n');
            w.write_all(&line)?;
        }
        Ok(())
    };
    write_ids(b'e', assignment.edge_partitions())?;
    write_ids(b'm', assignment.masters())?;
    // A `BufWriter` passed by value would swallow its last write error on drop.
    w.flush()?;
    Ok(())
}

/// Save an assignment to a file.
pub fn save_assignment(assignment: &Assignment, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_assignment(assignment, std::io::BufWriter::new(file))
}

/// Deserialize an assignment against the edge stream it was computed for.
/// Fails if the stream's shape (edge/vertex counts) does not match.
pub fn read_assignment<R: Read>(graph: &dyn StreamingEdges, reader: R) -> Result<Assignment> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    if header.trim() != MAGIC {
        return Err(CoreError::InvalidGraph(format!(
            "not a distgraph partition file (header {header:?})"
        )));
    }
    // The three count headers, each allowed once.
    let mut partitions: Option<u64> = None;
    let mut edges_expected: Option<u64> = None;
    let mut vertices_expected: Option<u64> = None;
    let mut edge_parts: Vec<PartitionId> = Vec::new();
    let mut masters: Vec<PartitionId> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = |content: &str| CoreError::Parse {
            line: lineno + 2,
            content: content.to_string(),
        };
        let mut fields = trimmed.split_ascii_whitespace();
        match fields.next() {
            Some(name @ ("partitions" | "edges" | "vertices")) => {
                let value = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(trimmed))?;
                let slot = match name {
                    "partitions" => &mut partitions,
                    "edges" => &mut edges_expected,
                    _ => &mut vertices_expected,
                };
                if slot.replace(value).is_some() {
                    return Err(CoreError::InvalidGraph(format!(
                        "repeated {name} header (line {})",
                        lineno + 2
                    )));
                }
            }
            Some("e") => {
                for f in fields {
                    edge_parts.push(PartitionId(f.parse().map_err(|_| bad(f))?));
                }
            }
            Some("m") => {
                for f in fields {
                    masters.push(PartitionId(f.parse().map_err(|_| bad(f))?));
                }
            }
            _ => return Err(bad(trimmed)),
        }
    }
    let partitions =
        partitions.ok_or_else(|| CoreError::InvalidGraph("missing partitions header".into()))?;
    // The count sizes per-partition tables downstream, so it is bounded here,
    // before anything is allocated from it.
    if partitions == 0 || partitions > MAX_PARTITIONS as u64 {
        return Err(CoreError::InvalidGraph(format!(
            "partitions header {partitions} outside 1..={MAX_PARTITIONS}"
        )));
    }
    let partitions = partitions as u32;
    if edges_expected != Some(graph.num_edges() as u64)
        || vertices_expected != Some(graph.num_vertices())
    {
        return Err(CoreError::InvalidGraph(format!(
            "partition file was computed for a different graph: file says \
             {edges_expected:?} edges / {vertices_expected:?} vertices, graph has {} / {}",
            graph.num_edges(),
            graph.num_vertices()
        )));
    }
    if edge_parts.len() != graph.num_edges() {
        return Err(CoreError::InvalidGraph(format!(
            "expected {} edge assignments, found {}",
            graph.num_edges(),
            edge_parts.len()
        )));
    }
    if let Some(bad) = edge_parts.iter().find(|p| p.0 >= partitions) {
        return Err(CoreError::InvalidGraph(format!(
            "edge partition {bad} out of range (< {partitions})"
        )));
    }
    let mut assignment = Assignment::from_edge_partitions(graph, edge_parts, partitions, 0);
    if !masters.is_empty() {
        if masters.len() != graph.num_vertices() as usize {
            return Err(CoreError::InvalidGraph(format!(
                "expected {} masters, found {}",
                graph.num_vertices(),
                masters.len()
            )));
        }
        // Tolerate master hints that are not replicas (e.g. isolated
        // vertices): fall back to the default pick.
        let sanitized: Vec<PartitionId> = masters
            .iter()
            .enumerate()
            .map(|(v, &m)| {
                let v = VertexId(v as u64);
                if assignment.replicas(v).is_empty()
                    || assignment.replicas(v).binary_search(&m.0).is_ok()
                {
                    m
                } else {
                    assignment.master_of(v)
                }
            })
            .collect();
        assignment.set_masters(sanitized);
    }
    Ok(assignment)
}

/// Load an assignment from a file.
pub fn load_assignment(graph: &dyn StreamingEdges, path: impl AsRef<Path>) -> Result<Assignment> {
    read_assignment(graph, std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{PartitionContext, Partitioner};
    use crate::strategies::Hybrid;
    use crate::Strategy;
    use gp_core::EdgeList;

    fn graph() -> EdgeList {
        gp_gen::erdos_renyi(200, 1_500, 3)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = graph();
        let out = Hybrid::default().partition(&g, &PartitionContext::new(6));
        let mut buf = Vec::new();
        write_assignment(&out.assignment, &mut buf).unwrap();
        let loaded = read_assignment(&g, &buf[..]).unwrap();
        assert_eq!(loaded.num_partitions(), 6);
        assert_eq!(loaded.edge_partitions(), out.assignment.edge_partitions());
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            assert_eq!(loaded.master_of(v), out.assignment.master_of(v));
            assert_eq!(loaded.replicas(v), out.assignment.replicas(v));
        }
        assert!((loaded.replication_factor() - out.assignment.replication_factor()).abs() < 1e-12);
    }

    /// `write_assignment` as it was before it streamed: one `String` per id,
    /// joined per chunk.
    fn write_assignment_oracle(assignment: &Assignment) -> Vec<u8> {
        let mut w = Vec::new();
        writeln!(w, "{MAGIC}").unwrap();
        writeln!(w, "partitions {}", assignment.num_partitions()).unwrap();
        writeln!(w, "edges {}", assignment.num_edges()).unwrap();
        writeln!(w, "vertices {}", assignment.num_vertices()).unwrap();
        for chunk in assignment.edge_partitions().chunks(CHUNK) {
            let line: Vec<String> = chunk.iter().map(|p| p.0.to_string()).collect();
            writeln!(w, "e {}", line.join(" ")).unwrap();
        }
        let masters: Vec<String> = (0..assignment.num_vertices())
            .map(|v| assignment.master_of(VertexId(v)).0.to_string())
            .collect();
        for chunk in masters.chunks(CHUNK) {
            writeln!(w, "m {}", chunk.join(" ")).unwrap();
        }
        w
    }

    /// `edges` edges over `vertices` vertices, spread over `partitions`
    /// partitions so that every id width up to the largest one occurs.
    fn synthetic(edges: usize, vertices: u64, partitions: u32) -> (EdgeList, Assignment) {
        let list = (0..edges as u64)
            .map(|i| gp_core::Edge::new(i % vertices, (7 * i + 1) % vertices))
            .collect();
        let g = EdgeList::with_vertex_count(list, vertices).unwrap();
        let parts = (0..edges as u64)
            .map(|i| PartitionId((gp_core::hash_u64(i, 5) % partitions as u64) as u32))
            .collect();
        let a = Assignment::from_edge_partitions(&g, parts, partitions, 9);
        (g, a)
    }

    #[test]
    fn streamed_bytes_match_the_old_writer() {
        let cases = [
            (0, 0, 4),
            (0, 10, 4),
            (CHUNK, CHUNK as u64, 16),
            (CHUNK + 1, 2 * CHUNK as u64, 16),
            (3 * CHUNK - 1, CHUNK as u64 + 1, 16),
            (3 * CHUNK - 1, 5_000, 300),
        ];
        for (edges, vertices, partitions) in cases {
            let (g, a) = synthetic(edges, vertices, partitions);
            let mut buf = Vec::new();
            write_assignment(&a, &mut buf).unwrap();
            assert!(
                buf == write_assignment_oracle(&a),
                "{edges} edges / {vertices} vertices / {partitions} partitions"
            );
            let loaded = read_assignment(&g, &buf[..]).unwrap();
            assert_eq!(loaded.edge_partitions(), a.edge_partitions());
        }
        let (_, a) = synthetic(3 * CHUNK - 1, 5_000, 300);
        let widths: std::collections::BTreeSet<usize> = a
            .edge_partitions()
            .iter()
            .map(|p| p.0.to_string().len())
            .collect();
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    /// Accepts `budget` bytes, then fails every write.
    struct FailingWriter {
        budget: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_is_an_error_not_a_panic() {
        let (_, a) = synthetic(CHUNK + 1, 100, 16);
        let mut full = Vec::new();
        write_assignment(&a, &mut full).unwrap();
        // In the header, mid edge line, at a line boundary, in the masters.
        for budget in [0, 10, 60, 5_000, full.len() - 1] {
            let err = write_assignment(&a, FailingWriter { budget }).unwrap_err();
            assert!(matches!(err, CoreError::Io(_)), "budget {budget}: {err}");
        }
        write_assignment(&a, FailingWriter { budget: full.len() }).unwrap();
    }

    #[test]
    fn rejects_partition_counts_outside_the_format_limit() {
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        for count in ["0", "65537", "4000000000", "18446744073709551615"] {
            let text = format!("{MAGIC}\npartitions {count}\nedges 1\nvertices 2\ne 0\n");
            let err = read_assignment(&g, text.as_bytes()).unwrap_err();
            assert!(matches!(err, CoreError::InvalidGraph(_)), "{err}");
            assert!(err.to_string().contains(count), "{err}");
        }
        let text = format!("{MAGIC}\npartitions {MAX_PARTITIONS}\nedges 1\nvertices 2\ne 0\n");
        assert_eq!(
            read_assignment(&g, text.as_bytes())
                .unwrap()
                .num_partitions(),
            MAX_PARTITIONS
        );
    }

    #[test]
    fn rejects_repeated_count_headers() {
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        for name in ["partitions", "edges", "vertices"] {
            // The repeat is a value that would otherwise be accepted, so only
            // the repetition itself can be what is refused.
            let value = match name {
                "partitions" => 2,
                "edges" => 1,
                _ => 2,
            };
            let text = format!("{MAGIC}\npartitions 2\nedges 1\nvertices 2\n{name} {value}\ne 0\n");
            let err = read_assignment(&g, text.as_bytes()).unwrap_err();
            assert!(matches!(err, CoreError::InvalidGraph(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("repeated {name} header")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_wrong_graph() {
        let g = graph();
        let out = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(4));
        let mut buf = Vec::new();
        write_assignment(&out.assignment, &mut buf).unwrap();
        let other = gp_gen::erdos_renyi(200, 1_499, 4);
        let err = read_assignment(&other, &buf[..]).unwrap_err();
        assert!(err.to_string().contains("different graph"), "{err}");
    }

    #[test]
    fn rejects_bad_header() {
        let g = graph();
        let err = read_assignment(&g, "not a partition file\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("not a distgraph partition file"));
    }

    #[test]
    fn rejects_out_of_range_partitions() {
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        let text = format!("{MAGIC}\npartitions 2\nedges 1\nvertices 2\ne 5\n");
        let err = read_assignment(&g, text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn file_roundtrip() {
        let g = graph();
        let out = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(4));
        let dir = std::env::temp_dir().join("distgraph-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt");
        save_assignment(&out.assignment, &path).unwrap();
        let loaded = load_assignment(&g, &path).unwrap();
        assert_eq!(loaded.edge_partitions(), out.assignment.edge_partitions());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 0)]);
        let text =
            format!("{MAGIC}\n# a comment\n\npartitions 2\nedges 2\nvertices 2\ne 0\ne 1\nm 0 1\n");
        let a = read_assignment(&g, text.as_bytes()).unwrap();
        assert_eq!(a.edge_partition(0), PartitionId(0));
        assert_eq!(a.edge_partition(1), PartitionId(1));
    }
}
