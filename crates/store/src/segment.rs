//! The on-disk CSR segment format.
//!
//! A segment is the frozen, checksummed image of one [`Graph`], laid
//! out exactly like the in-memory CSR so reads and writes are straight
//! buffer copies and a graph round-trips through disk byte-identically
//! (`read(write(g)) == g`, including the `symmetric` flag). Everything
//! is little-endian with fixed-width fields:
//!
//! ```text
//! offset  size             field
//! 0       8                magic  b"GELSEG01"
//! 8       8                flags  (bit 0: symmetric arc relation)
//! 16      8                n          (u64 vertex count)
//! 24      8                label_dim  (u64)
//! 32      8                num_arcs   (u64, = m)
//! 40      (n+1)·4          out_off    (u32 CSR offsets)
//! …       m·4              out_adj    (u32 neighbour ids)
//! …       (n+1)·4          in_off
//! …       m·4              in_adj
//! …       n·label_dim·8    labels     (f64 bit patterns)
//! end−8   8                checksum   (FNV-1a 64 of all prior bytes)
//! ```
//!
//! The header is fixed-size, so [`read_meta`] fetches the statistics
//! the sparse-lowering planner wants (`n`, `m`, density) with one 40
//! byte read and no adjacency I/O. The trailing checksum makes torn or
//! bit-rotted segments fail loudly at open time instead of producing a
//! corrupt graph.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use gel_graph::Graph;

/// Segment magic + format version.
pub const SEGMENT_MAGIC: [u8; 8] = *b"GELSEG01";

const FLAG_SYMMETRIC: u64 = 1;

/// Fixed header size in bytes (magic through `num_arcs`).
pub const HEADER_BYTES: u64 = 40;

static SEGMENTS_WRITTEN: gel_obs::Counter = gel_obs::Counter::new("store.segments.written");
static SEGMENTS_OPENED: gel_obs::Counter = gel_obs::Counter::new("store.segments.opened");

/// The header statistics of a segment — everything the planner's nnz
/// estimation needs, readable without touching the adjacency sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Vertex count `n`.
    pub n: usize,
    /// Label dimension `d`.
    pub label_dim: usize,
    /// Directed arc count `m`.
    pub num_arcs: usize,
    /// True when the arc relation is symmetric.
    pub symmetric: bool,
}

impl SegmentMeta {
    /// Arc density `m / n²` (0 for the empty graph) — the statistic the
    /// sparse-lowering cost model consumes.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.num_arcs as f64 / (self.n as f64 * self.n as f64)
        }
    }

    /// Total on-disk segment size implied by the header.
    pub fn file_bytes(&self) -> u64 {
        HEADER_BYTES
            + 2 * ((self.n as u64 + 1) * 4 + self.num_arcs as u64 * 4)
            + (self.n as u64 * self.label_dim as u64) * 8
            + 8
    }
}

/// Streaming FNV-1a 64 — the same checksum family the WAL uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// A writer that tees every byte into an [`Fnv64`].
struct HashingWriter<W: Write> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter { inner, hash: Fnv64::new() }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.hash.update(&buf[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32s(w: &mut impl Write, xs: &[u32]) -> io::Result<()> {
    // 64 KiB staging buffer keeps syscall count low without scaling
    // with the section size.
    let mut buf = [0u8; 64 * 1024];
    for chunk in xs.chunks(buf.len() / 4) {
        for (i, &x) in chunk.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 4])?;
    }
    Ok(())
}

fn read_u32s(r: &mut impl Read, n: usize) -> io::Result<Vec<u32>> {
    let mut out = Vec::with_capacity(n);
    let mut buf = [0u8; 64 * 1024];
    let mut left = n;
    while left > 0 {
        let take = left.min(buf.len() / 4);
        r.read_exact(&mut buf[..take * 4])?;
        out.extend(
            buf[..take * 4].chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        left -= take;
    }
    Ok(out)
}

fn write_f64s(w: &mut impl Write, xs: &[f64]) -> io::Result<()> {
    let mut buf = [0u8; 64 * 1024];
    for chunk in xs.chunks(buf.len() / 8) {
        for (i, &x) in chunk.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&x.to_bits().to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 8])?;
    }
    Ok(())
}

fn read_f64s(r: &mut impl Read, n: usize) -> io::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(n);
    let mut buf = [0u8; 64 * 1024];
    let mut left = n;
    while left > 0 {
        let take = left.min(buf.len() / 8);
        r.read_exact(&mut buf[..take * 8])?;
        out.extend(
            buf[..take * 8]
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))),
        );
        left -= take;
    }
    Ok(out)
}

fn encode_header(meta: &SegmentMeta) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[0..8].copy_from_slice(&SEGMENT_MAGIC);
    let flags = if meta.symmetric { FLAG_SYMMETRIC } else { 0 };
    h[8..16].copy_from_slice(&flags.to_le_bytes());
    h[16..24].copy_from_slice(&(meta.n as u64).to_le_bytes());
    h[24..32].copy_from_slice(&(meta.label_dim as u64).to_le_bytes());
    h[32..40].copy_from_slice(&(meta.num_arcs as u64).to_le_bytes());
    h
}

fn decode_header(h: &[u8; HEADER_BYTES as usize]) -> io::Result<SegmentMeta> {
    if h[0..8] != SEGMENT_MAGIC {
        return Err(bad("not a gel-store segment (bad magic)"));
    }
    let flags = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let n = u64::from_le_bytes(h[16..24].try_into().unwrap());
    let label_dim = u64::from_le_bytes(h[24..32].try_into().unwrap());
    let num_arcs = u64::from_le_bytes(h[32..40].try_into().unwrap());
    if n > u32::MAX as u64 || num_arcs > u32::MAX as u64 || label_dim == 0 {
        return Err(bad("segment header out of range"));
    }
    Ok(SegmentMeta {
        n: n as usize,
        label_dim: label_dim as usize,
        num_arcs: num_arcs as usize,
        symmetric: flags & FLAG_SYMMETRIC != 0,
    })
}

/// Writes `g` as a segment at `path` (atomically replacing any
/// existing file via a sibling temp file + rename). Returns the
/// on-disk size in bytes.
pub fn write_segment(path: &Path, g: &Graph) -> io::Result<u64> {
    let meta = SegmentMeta {
        n: g.num_vertices(),
        label_dim: g.label_dim(),
        num_arcs: g.num_arcs(),
        symmetric: g.is_symmetric(),
    };
    let tmp = path.with_extension("seg.tmp");
    {
        let file = File::create(&tmp)?;
        let mut w = HashingWriter::new(BufWriter::new(file));
        w.write_all(&encode_header(&meta))?;
        let (out_off, out_adj) = g.csr_out();
        let (in_off, in_adj) = g.csr_in();
        write_u32s(&mut w, out_off)?;
        write_u32s(&mut w, out_adj)?;
        write_u32s(&mut w, in_off)?;
        write_u32s(&mut w, in_adj)?;
        write_f64s(&mut w, g.labels_flat())?;
        let digest = w.hash.digest();
        w.write_all(&digest.to_le_bytes())?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    SEGMENTS_WRITTEN.incr();
    Ok(meta.file_bytes())
}

/// Reads just the fixed header of the segment at `path`.
pub fn read_meta(path: &Path) -> io::Result<SegmentMeta> {
    let mut file = File::open(path)?;
    let mut h = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut h)?;
    decode_header(&h)
}

/// Reads the segment at `path` back into a [`Graph`], verifying the
/// trailing checksum and every CSR structural invariant.
pub fn read_segment(path: &Path) -> io::Result<Graph> {
    let file = File::open(path)?;
    let mut r = BufReader::new(file);
    let mut h = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut h)?;
    let meta = decode_header(&h)?;
    let mut hash = Fnv64::new();
    hash.update(&h);

    // Wrap subsequent section reads so the checksum covers them.
    struct HashingReader<'a, R: Read> {
        inner: R,
        hash: &'a mut Fnv64,
    }
    impl<R: Read> Read for HashingReader<'_, R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.hash.update(&buf[..n]);
            Ok(n)
        }
    }
    let mut hr = HashingReader { inner: &mut r, hash: &mut hash };
    let out_off = read_u32s(&mut hr, meta.n + 1)?;
    let out_adj = read_u32s(&mut hr, meta.num_arcs)?;
    let in_off = read_u32s(&mut hr, meta.n + 1)?;
    let in_adj = read_u32s(&mut hr, meta.num_arcs)?;
    let labels = read_f64s(&mut hr, meta.n * meta.label_dim)?;
    let expect = hash.digest();

    let mut tail = [0u8; 8];
    r.read_exact(&mut tail)?;
    if u64::from_le_bytes(tail) != expect {
        return Err(bad("segment checksum mismatch (torn or corrupt file)"));
    }
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(bad("trailing bytes after segment checksum"));
    }

    let g = std::panic::catch_unwind(move || {
        Graph::from_raw_parts(
            meta.n,
            meta.label_dim,
            out_off,
            out_adj,
            in_off,
            in_adj,
            labels,
            meta.symmetric,
        )
    })
    .map_err(|_| bad("segment checksum valid but CSR invariants violated"))?;
    if !in_csr_is_transpose(&g) {
        return Err(bad("segment checksum valid but in-CSR is not the transpose of out-CSR"));
    }
    SEGMENTS_OPENED.incr();
    Ok(g)
}

/// Whether `g`'s in-CSR is the transpose of its out-CSR, in O(n + m):
/// arcs `(u, v)` in out-CSR order (ascending `u`) must consume each
/// sorted in-row `v` front to back. Equal arc counts (checked when the
/// graph is built) then leave no in-entry unconsumed. Kernels that read
/// either CSR — neighbour aggregation, the sum-product join — rely on
/// it, so a segment that breaks it would answer by plan.
fn in_csr_is_transpose(g: &Graph) -> bool {
    let (in_off, in_adj) = g.csr_in();
    let mut cursor: Vec<u32> = in_off[..g.num_vertices()].to_vec();
    g.arcs().all(|(u, v)| {
        let c = &mut cursor[v as usize];
        let hit = *c < in_off[v as usize + 1] && in_adj[*c as usize] == u;
        *c += 1;
        hit
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gel_graph::families;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gel-store-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trip_is_identity() {
        let dir = tmpdir("rt");
        for (tag, g) in [
            ("petersen", families::petersen()),
            ("cycle", families::cycle(7)),
            ("labeled", families::path(4).with_labels(vec![1.0, -2.5, 0.0, 3.25], 1)),
        ] {
            let p = dir.join(format!("{tag}.seg"));
            write_segment(&p, &g).unwrap();
            assert_eq!(read_segment(&p).unwrap(), g, "{tag}");
            let m = read_meta(&p).unwrap();
            assert_eq!(m.n, g.num_vertices());
            assert_eq!(m.num_arcs, g.num_arcs());
            assert_eq!(m.symmetric, g.is_symmetric());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directed_round_trip() {
        let dir = tmpdir("dir");
        let mut b = gel_graph::GraphBuilder::new(3);
        b.add_arc(0, 1).add_arc(2, 1);
        let g = b.build();
        let p = dir.join("d.seg");
        write_segment(&p, &g).unwrap();
        let back = read_segment(&p).unwrap();
        assert_eq!(back, g);
        assert!(!back.is_symmetric());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let p = dir.join("c.seg");
        write_segment(&p, &families::petersen()).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        assert!(read_segment(&p).is_err(), "flipped byte must fail the checksum");
        // Truncation is also caught.
        write_segment(&p, &families::petersen()).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_segment(&p).is_err(), "truncated segment must fail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment whose in-rows are shape-valid but not the transpose of
    /// its out-rows, under a recomputed checksum, is refused.
    #[test]
    fn non_transposed_in_csr_is_refused() {
        let dir = tmpdir("transpose");
        let p = dir.join("t.seg");
        let mut b = gel_graph::GraphBuilder::new(3);
        b.add_arc(0, 1).add_arc(0, 2).add_arc(2, 1);
        write_segment(&p, &b.build()).unwrap();
        assert!(read_segment(&p).is_ok());
        // Overwrite the in-sections with the out-sections: rows
        // in(0) = [1, 2], in(1) = [], in(2) = [1] are sorted and in
        // range, but not the transpose.
        let mut bytes = std::fs::read(&p).unwrap();
        let (h, csr) = (HEADER_BYTES as usize, (3 + 1 + 3) * 4);
        bytes.copy_within(h..h + csr, h + csr);
        let body = bytes.len() - 8;
        let mut hash = Fnv64::new();
        hash.update(&bytes[..body]);
        bytes[body..].copy_from_slice(&hash.digest().to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = read_segment(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_reports_density_and_size() {
        let dir = tmpdir("meta");
        let p = dir.join("m.seg");
        let g = families::cycle(10); // 10 vertices, 20 arcs
        let bytes = write_segment(&p, &g).unwrap();
        let m = read_meta(&p).unwrap();
        assert_eq!(m.density(), 20.0 / 100.0);
        assert_eq!(bytes, m.file_bytes());
        assert_eq!(std::fs::metadata(&p).unwrap().len(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
