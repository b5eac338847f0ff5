//! Streaming store writer: adjacency records go straight to the output as
//! they are appended, so building a billion-edge store needs memory only for
//! the offset index (16 bytes per `stride` vertices) and one record buffer.

use crate::error::StoreError;
use crate::format::{Fnv64, Header, DEFAULT_INDEX_STRIDE, HEADER_LEN};
use crate::varint;
use gp_core::{Edge, EdgeList, VertexId};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Summary of a finished build, echoed by `store build`.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Vertices written (the full declared space, including empty records).
    pub num_vertices: u64,
    /// Total edges written.
    pub num_edges: u64,
    /// Adjacency blob bytes.
    pub data_len: u64,
    /// Offset-index entries.
    pub index_entries: u64,
    /// Total file length.
    pub file_len: u64,
}

impl StoreStats {
    /// Compressed bytes per edge (full file / edges) — the compression
    /// headline against the 16 bytes/edge of an in-memory `Vec<Edge>`.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.num_edges == 0 {
            return 0.0;
        }
        self.file_len as f64 / self.num_edges as f64
    }
}

/// Incremental `.gps` writer over any `Write + Seek` sink.
///
/// Vertices must be appended in id order with their targets sorted
/// ascending (the canonical `(src, dst)` stream order); [`finish`] pads any
/// trailing vertices with empty records and back-patches the header.
///
/// [`finish`]: StoreBuilder::finish
pub struct StoreBuilder<W: Write + Seek> {
    out: W,
    stride: u32,
    num_vertices: u64,
    next_vertex: u64,
    num_edges: u64,
    data_len: u64,
    index: Vec<u8>,
    index_entries: u64,
    checksum: Fnv64,
    record: Vec<u8>,
}

impl<W: Write + Seek> StoreBuilder<W> {
    /// Start a store for a dense vertex space `0..num_vertices`, reserving
    /// header space at the front of `out`.
    pub fn new(mut out: W, num_vertices: u64) -> io::Result<Self> {
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(StoreBuilder {
            out,
            stride: DEFAULT_INDEX_STRIDE,
            num_vertices,
            next_vertex: 0,
            num_edges: 0,
            data_len: 0,
            index: Vec::new(),
            index_entries: 0,
            checksum: Fnv64::new(),
            record: Vec::new(),
        })
    }

    /// Override the offset-index stride. Must be called before the first
    /// append.
    pub fn with_stride(mut self, stride: u32) -> Self {
        assert!(stride >= 1, "index stride must be >= 1");
        assert_eq!(self.next_vertex, 0, "set the stride before appending");
        self.stride = stride;
        self
    }

    /// Append the adjacency record for the next vertex in id order.
    /// `targets` must be sorted ascending (duplicates allowed) and within
    /// the declared vertex space.
    pub fn append_vertex(&mut self, targets: &[VertexId]) -> io::Result<()> {
        assert!(
            self.next_vertex < self.num_vertices,
            "appended more vertices than the declared {}",
            self.num_vertices
        );
        if self.next_vertex.is_multiple_of(u64::from(self.stride)) {
            self.index.extend_from_slice(&self.data_len.to_le_bytes());
            self.index.extend_from_slice(&self.num_edges.to_le_bytes());
            self.index_entries += 1;
        }
        self.record.clear();
        varint::encode_into(&mut self.record, targets.len() as u64);
        if let Some(&first) = targets.first() {
            let mut prev = first;
            varint::encode_into(&mut self.record, first.0);
            for &t in &targets[1..] {
                assert!(t >= prev, "targets must be sorted ascending");
                varint::encode_into(&mut self.record, t.0 - prev.0);
                prev = t;
            }
            assert!(
                prev.0 < self.num_vertices,
                "target {prev} outside vertex space 0..{}",
                self.num_vertices
            );
        }
        self.checksum.update(&self.record);
        self.out.write_all(&self.record)?;
        self.data_len += self.record.len() as u64;
        self.num_edges += targets.len() as u64;
        self.next_vertex += 1;
        Ok(())
    }

    /// Pad remaining vertices with empty adjacency, write the offset index,
    /// and back-patch the header (including both checksums).
    pub fn finish(mut self) -> io::Result<StoreStats> {
        while self.next_vertex < self.num_vertices {
            self.append_vertex(&[])?;
        }
        self.checksum.update(&self.index);
        self.out.write_all(&self.index)?;
        let header = Header {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            data_len: self.data_len,
            index_stride: self.stride,
            index_entries: self.index_entries,
            checksum: self.checksum.finish(),
        };
        debug_assert_eq!(
            self.index_entries,
            Header::expected_index_entries(self.num_vertices, self.stride)
        );
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header.to_bytes())?;
        self.out.flush()?;
        Ok(StoreStats {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            data_len: self.data_len,
            index_entries: self.index_entries,
            file_len: header.file_len(),
        })
    }
}

/// Write `(src, dst)`-sorted edges as a store. The slice must already be in
/// canonical order; adjacent duplicates are kept (multi-edges are legal).
pub fn write_sorted_edges<W: Write + Seek>(
    out: W,
    num_vertices: u64,
    edges: &[Edge],
) -> io::Result<StoreStats> {
    let mut builder = StoreBuilder::new(out, num_vertices)?;
    let mut targets: Vec<VertexId> = Vec::new();
    let mut current = 0u64;
    for e in edges {
        debug_assert!(e.src.0 >= current, "edges must be sorted by (src, dst)");
        while current < e.src.0 {
            builder.append_vertex(&targets)?;
            targets.clear();
            current += 1;
        }
        targets.push(e.dst);
    }
    if current < num_vertices {
        builder.append_vertex(&targets)?;
    }
    builder.finish()
}

/// Sort a copy of `graph`'s edges into canonical order and write them as a
/// store. Convenience path for tests and small CLI inputs; large graphs
/// should stream through [`StoreBuilder`] directly.
pub fn write_edge_list<W: Write + Seek>(out: W, graph: &EdgeList) -> io::Result<StoreStats> {
    let mut edges = graph.edges().to_vec();
    edges.sort_unstable();
    write_sorted_edges(out, graph.num_vertices(), &edges)
}

/// [`write_edge_list`] straight to a file path (buffered).
pub fn write_edge_list_to_path(
    path: impl AsRef<Path>,
    graph: &EdgeList,
) -> Result<StoreStats, StoreError> {
    let file = std::fs::File::create(path)?;
    Ok(write_edge_list(io::BufWriter::new(file), graph)?)
}
