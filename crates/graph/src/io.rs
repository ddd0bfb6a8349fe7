//! Edge-list I/O: SNAP-style text and a compact binary format.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::types::{Edge, VertexId};

/// Magic bytes identifying the binary edge-list format.
const MAGIC: &[u8; 4] = b"GBLT";
/// Binary format version.
const VERSION: u16 = 1;

/// Error produced by graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line of text could not be parsed as an edge.
    Parse { line: usize, content: String },
    /// Binary payload is malformed.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Parse { line, content } => {
                write!(f, "cannot parse edge at line {line}: {content:?}")
            }
            Self::Format(msg) => write!(f, "malformed binary graph: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<Truncated> for IoError {
    fn from(_: Truncated) -> Self {
        Self::Format("payload truncated".into())
    }
}

/// The bytes ended before the value being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// Big-endian reader over untrusted bytes. Every read is total — it
/// yields a value and advances, or returns [`Truncated`] and stays put —
/// so a decoder's bounds checks are its `?`s and none can be forgotten.
/// The binary formats here and the checkpoint codecs in `graphbolt-core`
/// all decode through it.
#[derive(Debug, Clone)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self(bytes)
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.0
    }

    /// How many bytes are not yet consumed.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `n` bytes remain (as for every
    /// read below).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, rest) = self.0.split_first_chunk().ok_or(Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// The next big-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_be_bytes(self.array()?))
    }
}

/// Appends `edges` in the binary edge layout `(u32 src, u32 dst, f64 w)`.
fn put_edges(buf: &mut Vec<u8>, edges: &[Edge]) {
    for e in edges {
        buf.extend_from_slice(&e.src.to_be_bytes());
        buf.extend_from_slice(&e.dst.to_be_bytes());
        buf.extend_from_slice(&e.weight.to_be_bytes());
    }
}

/// Reads `count` edges written by [`put_edges`].
fn read_edges(data: &mut Reader<'_>, count: usize) -> Result<Vec<Edge>, IoError> {
    // `count` is untrusted input: checked arithmetic and a comparison
    // with what the payload holds (a crafted huge count must surface as
    // a Format error, not an overflow panic or a capacity-overflow
    // abort) before anything is allocated for it.
    let want = count
        .checked_mul(16)
        .ok_or_else(|| IoError::Format(format!("implausible edge count {count}")))?;
    if data.remaining() < want {
        return Err(IoError::Format(format!(
            "payload truncated: want {want} bytes, have {}",
            data.remaining()
        )));
    }
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        edges.push(Edge::new(data.u32()?, data.u32()?, data.f64()?));
    }
    Ok(edges)
}

/// Consumes a `magic | u16 version` header, rejecting any other.
fn read_header(data: &mut Reader<'_>, magic: &[u8; 4]) -> Result<(), IoError> {
    let found = data.take(4)?;
    if found != magic {
        return Err(IoError::Format(format!("bad magic {found:?}")));
    }
    let version = data.u16()?;
    if version != VERSION {
        return Err(IoError::Format(format!("unsupported version {version}")));
    }
    Ok(())
}

/// Parses a SNAP-style text edge list: one `src dst [weight]` triple per
/// line, whitespace separated; `#`-prefixed lines are comments. A missing
/// weight defaults to `1.0`.
///
/// # Errors
///
/// Returns [`IoError::Parse`] with the offending line number on malformed
/// input.
pub fn parse_edge_list<R: Read>(reader: R) -> Result<Vec<Edge>, IoError> {
    let mut edges = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse_err = || IoError::Parse {
            line: idx + 1,
            content: trimmed.to_string(),
        };
        let src: VertexId = it
            .next()
            .ok_or_else(parse_err)?
            .parse()
            .map_err(|_| parse_err())?;
        let dst: VertexId = it
            .next()
            .ok_or_else(parse_err)?
            .parse()
            .map_err(|_| parse_err())?;
        let weight = match it.next() {
            Some(w) => w.parse().map_err(|_| parse_err())?,
            None => 1.0,
        };
        edges.push(Edge::new(src, dst, weight));
    }
    Ok(edges)
}

/// Reads a text edge list from `path`. See [`parse_edge_list`].
///
/// # Errors
///
/// Propagates file-open failures and parse errors.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<Vec<Edge>, IoError> {
    parse_edge_list(File::open(path)?)
}

/// Writes a text edge list (`src dst weight` per line).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_edge_list<P: AsRef<Path>>(path: P, edges: &[Edge]) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for e in edges {
        writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes edges into the compact binary format:
/// `GBLT | u16 version | u64 count | count × (u32 src, u32 dst, f64 w)`.
pub fn to_binary(edges: &[Edge]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 2 + 8 + edges.len() * 16);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_be_bytes());
    buf.extend_from_slice(&(edges.len() as u64).to_be_bytes());
    put_edges(&mut buf, edges);
    buf
}

/// Deserializes edges written by [`to_binary`].
///
/// # Errors
///
/// Returns [`IoError::Format`] on bad magic, version, or truncation.
pub fn from_binary(data: &[u8]) -> Result<Vec<Edge>, IoError> {
    let mut data = Reader::new(data);
    read_header(&mut data, MAGIC)?;
    let count = data.u64()? as usize;
    read_edges(&mut data, count)
}

/// Writes the binary format to `path`.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_binary<P: AsRef<Path>>(path: P, edges: &[Edge]) -> Result<(), IoError> {
    let bytes = to_binary(edges);
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Reads the binary format from `path`.
///
/// # Errors
///
/// Propagates read failures and format errors.
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<Vec<Edge>, IoError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    from_binary(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_edge_list_handles_comments_and_weights() {
        let text = "# comment\n0 1\n1 2 0.5\n\n 2 0 2.5 \n";
        let edges = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], Edge::unweighted(0, 1));
        assert_eq!(edges[1].weight, 0.5);
        assert_eq!(edges[2].weight, 2.5);
    }

    #[test]
    fn parse_edge_list_reports_line_numbers() {
        let text = "0 1\nnot an edge\n";
        match parse_edge_list(text.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn reader_reads_are_total_and_a_failed_one_consumes_nothing() {
        let mut r = Reader::new(&[0, 1, 2]);
        assert_eq!(r.u32(), Err(Truncated));
        assert_eq!(r.take(4), Err(Truncated));
        assert_eq!(r.u16(), Ok(1));
        assert_eq!((r.u8(), r.u8(), r.remaining()), (Ok(2), Err(Truncated), 0));
    }

    #[test]
    fn binary_round_trip() {
        let edges = vec![Edge::new(0, 1, 0.25), Edge::new(7, 3, -4.0)];
        let bytes = to_binary(&edges);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(edges, back);
        assert_eq!(back[1].weight, -4.0);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = from_binary(b"NOPE\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00");
        assert!(matches!(err, Err(IoError::Format(_))));
    }

    #[test]
    fn binary_rejects_truncation() {
        let edges = vec![Edge::new(0, 1, 1.0)];
        let bytes = to_binary(&edges);
        let cut = &bytes[..bytes.len() - 4];
        assert!(matches!(from_binary(cut), Err(IoError::Format(_))));
    }

    #[test]
    fn file_round_trips() {
        let dir = std::env::temp_dir().join("graphbolt-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = vec![Edge::new(1, 2, 0.5), Edge::new(2, 3, 1.5)];

        let text_path = dir.join("edges.txt");
        write_edge_list(&text_path, &edges).unwrap();
        assert_eq!(read_edge_list(&text_path).unwrap(), edges);

        let bin_path = dir.join("edges.bin");
        write_binary(&bin_path, &edges).unwrap();
        assert_eq!(read_binary(&bin_path).unwrap(), edges);
    }
}

/// Magic bytes identifying a serialized mutation stream.
const STREAM_MAGIC: &[u8; 4] = b"GBMS";

/// Serializes a sequence of mutation batches:
/// `GBMS | u16 version | u32 batch-count | batches…` where each batch is
/// `u32 add-count | u32 del-count | edges…` in the binary edge layout.
/// Recording the exact batch boundaries makes streaming experiments
/// replayable across runs and machines.
pub fn batches_to_binary(batches: &[crate::MutationBatch]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(STREAM_MAGIC);
    buf.extend_from_slice(&VERSION.to_be_bytes());
    buf.extend_from_slice(&(batches.len() as u32).to_be_bytes());
    for b in batches {
        buf.extend_from_slice(&(b.additions().len() as u32).to_be_bytes());
        buf.extend_from_slice(&(b.deletions().len() as u32).to_be_bytes());
        put_edges(&mut buf, b.additions());
        put_edges(&mut buf, b.deletions());
    }
    buf
}

/// Deserializes batches written by [`batches_to_binary`].
///
/// # Errors
///
/// Returns [`IoError::Format`] on bad magic, version, or truncation.
pub fn batches_from_binary(data: &[u8]) -> Result<Vec<crate::MutationBatch>, IoError> {
    let mut data = Reader::new(data);
    read_header(&mut data, STREAM_MAGIC)?;
    let count = data.u32()? as usize;
    // Each batch needs at least its 8-byte header: bound the allocation
    // by what the payload could actually hold.
    if data.remaining() < count.saturating_mul(8) {
        return Err(IoError::Format(format!(
            "payload too small for {count} batches"
        )));
    }
    let mut batches = Vec::with_capacity(count);
    for _ in 0..count {
        let adds = data.u32()? as usize;
        let dels = data.u32()? as usize;
        let additions = read_edges(&mut data, adds)?;
        let deletions = read_edges(&mut data, dels)?;
        batches.push(crate::MutationBatch::from_parts(additions, deletions));
    }
    Ok(batches)
}

/// Writes a mutation stream to `path`.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_batches<P: AsRef<Path>>(
    path: P,
    batches: &[crate::MutationBatch],
) -> Result<(), IoError> {
    let bytes = batches_to_binary(batches);
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Reads a mutation stream from `path`.
///
/// # Errors
///
/// Propagates read failures and format errors.
pub fn read_batches<P: AsRef<Path>>(path: P) -> Result<Vec<crate::MutationBatch>, IoError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    batches_from_binary(&data)
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::MutationBatch;

    fn sample_batches() -> Vec<MutationBatch> {
        let mut b1 = MutationBatch::new();
        b1.add(Edge::new(0, 1, 0.5)).delete(Edge::new(2, 3, 1.0));
        let mut b2 = MutationBatch::new();
        b2.add(Edge::new(4, 5, 2.0));
        vec![b1, b2, MutationBatch::new()]
    }

    #[test]
    fn batch_stream_round_trips() {
        let batches = sample_batches();
        let bytes = batches_to_binary(&batches);
        let back = batches_from_binary(&bytes).unwrap();
        assert_eq!(batches, back);
    }

    #[test]
    fn batch_stream_rejects_bad_magic() {
        let err = batches_from_binary(b"XXXX\x00\x01\x00\x00\x00\x00");
        assert!(matches!(err, Err(IoError::Format(_))));
    }

    #[test]
    fn batch_stream_rejects_truncation() {
        let bytes = batches_to_binary(&sample_batches());
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(batches_from_binary(cut), Err(IoError::Format(_))));
    }

    #[test]
    fn batch_stream_file_round_trips() {
        let dir = std::env::temp_dir().join("graphbolt-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.gbms");
        let batches = sample_batches();
        write_batches(&path, &batches).unwrap();
        assert_eq!(read_batches(&path).unwrap(), batches);
    }
}
