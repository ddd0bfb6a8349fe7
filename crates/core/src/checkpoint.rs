//! Engine checkpointing: persist and resume a streaming computation.
//!
//! A streaming deployment must survive restarts without redoing the
//! (expensive) tracked initial execution. A checkpoint captures the
//! engine's complete incremental state — final values, cut-off values,
//! changed-bits, and the dependency store with its pruning structure —
//! so a resumed engine refines future batches exactly as the original
//! would have.
//!
//! Value and aggregation types are algorithm-specific, so serialization
//! goes through the [`StateCodec`] trait; [`F64Codec`] and [`VecF64Codec`]
//! cover every built-in algorithm (scalars and vectors of `f64`).

use graphbolt_graph::io::{Reader, Truncated};
use graphbolt_graph::GraphSnapshot;

use crate::algorithm::Algorithm;
use crate::options::EngineOptions;
use crate::store::DependencyStore;
use crate::streaming::StreamingEngine;

/// Binary codec for one state type (a value or an aggregation).
pub trait StateCodec<T> {
    /// Appends `value` to `buf`.
    fn write(&self, value: &T, buf: &mut Vec<u8>);
    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Truncated`] when `buf` is exhausted.
    fn read(&self, buf: &mut Reader<'_>) -> Result<T, CheckpointError>;
}

/// Errors produced while encoding/decoding checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Payload ended before the declared contents.
    Truncated,
    /// Header magic/version mismatch.
    Format(String),
    /// Checkpoint does not match the engine it is loaded into.
    Mismatch(String),
    /// Stored checksum does not match the payload (torn or corrupted
    /// write).
    Corrupted,
    /// Underlying filesystem failure (message form: `io::Error` is
    /// neither `Clone` nor `PartialEq`).
    Io(String),
    /// Capture was requested before the engine ran its initial
    /// execution — there is no state to persist yet.
    NotInitialized,
    /// The engine's in-memory state contradicted itself during capture
    /// (e.g. a stored-prefix length pointing past the stored entries).
    StateInconsistent(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::Format(m) => write!(f, "malformed checkpoint: {m}"),
            Self::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            Self::Corrupted => write!(f, "checkpoint checksum mismatch"),
            Self::Io(m) => write!(f, "checkpoint i/o error: {m}"),
            Self::NotInitialized => {
                write!(f, "cannot checkpoint an engine before run_initial()")
            }
            Self::StateInconsistent(m) => {
                write!(f, "engine state inconsistent during capture: {m}")
            }
        }
    }
}

impl From<Truncated> for CheckpointError {
    fn from(_: Truncated) -> Self {
        Self::Truncated
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl std::error::Error for CheckpointError {}

/// Codec for `f64` state (PageRank, CoEM, SSSP, CC).
#[derive(Debug, Clone, Copy, Default)]
pub struct F64Codec;

impl StateCodec<f64> for F64Codec {
    fn write(&self, value: &f64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&value.to_be_bytes());
    }

    fn read(&self, buf: &mut Reader<'_>) -> Result<f64, CheckpointError> {
        Ok(buf.f64()?)
    }
}

/// Codec for `Vec<f64>` state (LP, BP, CF).
#[derive(Debug, Clone, Copy, Default)]
pub struct VecF64Codec;

impl StateCodec<Vec<f64>> for VecF64Codec {
    fn write(&self, value: &Vec<f64>, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(value.len() as u32).to_be_bytes());
        for x in value {
            buf.extend_from_slice(&x.to_be_bytes());
        }
    }

    fn read(&self, buf: &mut Reader<'_>) -> Result<Vec<f64>, CheckpointError> {
        let len = buf.u32()? as usize;
        // Untrusted length: nothing is allocated for more elements than
        // the payload holds.
        if buf.remaining() < len * 8 {
            return Err(CheckpointError::Truncated);
        }
        let mut value = Vec::with_capacity(len);
        for _ in 0..len {
            value.push(buf.f64()?);
        }
        Ok(value)
    }
}

const MAGIC: &[u8; 4] = b"GBCK";
const VERSION: u16 = 1;

/// Serialized engine state, ready to be written to durable storage
/// alongside the graph (persist the snapshot with
/// [`graphbolt_graph::io::write_binary`]).
#[derive(Debug)]
pub struct Checkpoint {
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// The raw payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw payload read back from storage.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Self {
            bytes: bytes.into(),
        }
    }

    /// Captures the state of an initialized engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine has not run its initial execution.
    pub fn capture<A, CV, CG>(engine: &StreamingEngine<A>, value_codec: &CV, agg_codec: &CG) -> Self
    where
        A: Algorithm,
        CV: StateCodec<A::Value>,
        CG: StateCodec<A::Agg>,
    {
        // lint:allow(panic-reachability) — documented `# Panics` API
        // contract; service paths (the session checkpoint writer) use
        // `try_capture`.
        Self::try_capture(engine, value_codec, agg_codec)
            .expect("run_initial() must complete before capture()")
    }

    /// Fallible form of [`Checkpoint::capture`] — the form the session
    /// checkpoint writer uses, so capture problems reach the caller as
    /// typed errors instead of panicking a worker thread.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotInitialized`] if the engine has not run its
    /// initial execution; [`CheckpointError::StateInconsistent`] if the
    /// dependency store contradicts its own prefix bookkeeping.
    pub fn try_capture<A, CV, CG>(
        engine: &StreamingEngine<A>,
        value_codec: &CV,
        agg_codec: &CG,
    ) -> Result<Self, CheckpointError>
    where
        A: Algorithm,
        CV: StateCodec<A::Value>,
        CG: StateCodec<A::Agg>,
    {
        let state = engine
            .try_checkpoint_state()
            .map_err(|_| CheckpointError::NotInitialized)?;
        let n = state.vals.len();
        // Sized once from the fixed-width parts (exact for scalar state,
        // a floor for vectors): growing a multi-megabyte buffer by
        // doubling copies it about once more.
        let (value, agg) = (std::mem::size_of::<A::Value>(), std::mem::size_of::<A::Agg>());
        let mut buf =
            Vec::with_capacity(34 + n * (2 * value + 6) + state.store.stored_entries() * agg);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.extend_from_slice(&(n as u64).to_be_bytes());
        buf.extend_from_slice(&(engine.graph().num_edges() as u64).to_be_bytes());
        buf.extend_from_slice(&(engine.options().max_iterations as u32).to_be_bytes());
        buf.extend_from_slice(&(state.store.cutoff() as u32).to_be_bytes());
        buf.extend_from_slice(&(state.store.tracked_iterations() as u32).to_be_bytes());
        for v in state.vals {
            value_codec.write(v, &mut buf);
        }
        for v in state.vals_at_cutoff {
            value_codec.write(v, &mut buf);
        }
        buf.extend(state.changed_at_cutoff.iter().map(|&b| u8::from(b)));
        for v in 0..n {
            let len = state.store.stored_len(v);
            buf.extend_from_slice(&(len as u32).to_be_bytes());
            for i in 1..=len {
                let agg = state.store.get(v, i).ok_or_else(|| {
                    CheckpointError::StateInconsistent(format!(
                        "vertex {v}: stored_len {len} but no aggregation at iteration {i}"
                    ))
                })?;
                agg_codec.write(agg, &mut buf);
            }
            match state.store.frozen_tail(v) {
                None => buf.push(0),
                Some(None) => buf.push(1),
                Some(Some(t)) => {
                    buf.push(2);
                    agg_codec.write(t, &mut buf);
                }
            }
        }
        Ok(Self { bytes: buf })
    }

    /// Restores an engine over `graph` (which must be the same snapshot
    /// the checkpoint was captured against).
    ///
    /// # Errors
    ///
    /// Fails on malformed payloads or when graph/options don't match the
    /// captured state.
    pub fn restore<A, CV, CG>(
        &self,
        graph: GraphSnapshot,
        alg: A,
        opts: EngineOptions,
        value_codec: &CV,
        agg_codec: &CG,
    ) -> Result<StreamingEngine<A>, CheckpointError>
    where
        A: Algorithm,
        CV: StateCodec<A::Value>,
        CG: StateCodec<A::Agg>,
    {
        let mut buf = Reader::new(&self.bytes);
        let magic = buf.take(4)?;
        if magic != MAGIC {
            return Err(CheckpointError::Format(format!("bad magic {magic:?}")));
        }
        let version = buf.u16()?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let n = buf.u64()? as usize;
        let edges = buf.u64()? as usize;
        if n != graph.num_vertices() || edges != graph.num_edges() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for a {n}-vertex/{edges}-edge graph, got {}/{}",
                graph.num_vertices(),
                graph.num_edges()
            )));
        }
        let iterations = buf.u32()? as usize;
        if iterations != opts.max_iterations {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint ran {iterations} iterations, options say {}",
                opts.max_iterations
            )));
        }
        let cutoff = buf.u32()? as usize;
        if cutoff != opts.effective_cutoff() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint cut-off {cutoff}, options say {}",
                opts.effective_cutoff()
            )));
        }
        let tracked = buf.u32()? as usize;

        let read_vals = |buf: &mut Reader<'_>| -> Result<Vec<A::Value>, CheckpointError> {
            (0..n).map(|_| value_codec.read(buf)).collect()
        };
        let vals = read_vals(&mut buf)?;
        let vals_at_cutoff = read_vals(&mut buf)?;
        let changed_at_cutoff: Vec<bool> = buf.take(n)?.iter().map(|&b| b != 0).collect();
        let mut store = DependencyStore::new(n, cutoff, opts.vertical_pruning);
        for v in 0..n {
            let len = buf.u32()? as usize;
            if len > cutoff {
                return Err(CheckpointError::Format(format!(
                    "prefix of length {len} exceeds cut-off {cutoff}"
                )));
            }
            let prefix: Vec<A::Agg> = (0..len)
                .map(|_| agg_codec.read(&mut buf))
                .collect::<Result<_, _>>()?;
            let tail = match buf.u8()? {
                0 => None,
                1 => Some(None),
                2 => Some(Some(agg_codec.read(&mut buf)?)),
                other => {
                    return Err(CheckpointError::Format(format!("bad tail tag {other}")));
                }
            };
            store.restore_history(v, prefix, tail);
        }
        store.force_tracked_iterations(tracked);
        Ok(StreamingEngine::from_checkpoint_state(
            graph,
            alg,
            opts,
            vals,
            vals_at_cutoff,
            changed_at_cutoff,
            store,
        ))
    }
}

// ---------------------------------------------------------------------
// Durable session checkpoints: graph + engine state in one file, written
// atomically, recovered newest-good-first.
// ---------------------------------------------------------------------

/// Magic bytes of the on-disk session-checkpoint container.
const FILE_MAGIC: &[u8; 4] = b"GBSF";
/// Container format version.
const FILE_VERSION: u16 = 1;
/// File-name prefix/suffix of numbered checkpoints inside a directory.
const FILE_PREFIX: &str = "ck-";
const FILE_SUFFIX: &str = ".gbsf";

/// FNV-1a 64-bit checksum — cheap, dependency-free corruption detection
/// for torn checkpoint writes (not an integrity guarantee against an
/// adversary).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn checkpoint_file_name(seq: u64) -> String {
    // Zero-padded so lexicographic order equals numeric order.
    format!("{FILE_PREFIX}{seq:020}{FILE_SUFFIX}")
}

fn parse_checkpoint_seq(name: &str) -> Option<u64> {
    name.strip_prefix(FILE_PREFIX)?
        .strip_suffix(FILE_SUFFIX)?
        .parse()
        .ok()
}

/// Serializes the complete durable state of an engine — graph edges plus
/// the [`Checkpoint`] payload — into one checksummed container:
/// `GBSF | u16 version | u64 seq | u64 fnv1a(payload) | payload`, where
/// `payload` is `u64 n | u64 graph-len | GBLT edges | u64 ck-len | ck`.
///
/// # Errors
///
/// Propagates [`Checkpoint::try_capture`] errors
/// ([`CheckpointError::NotInitialized`],
/// [`CheckpointError::StateInconsistent`]) so they reach
/// [`write_session_checkpoint`]'s caller typed instead of panicking the
/// session worker.
pub fn try_session_file_bytes<A, CV, CG>(
    engine: &StreamingEngine<A>,
    seq: u64,
    value_codec: &CV,
    agg_codec: &CG,
) -> Result<Vec<u8>, CheckpointError>
where
    A: Algorithm,
    CV: StateCodec<A::Value>,
    CG: StateCodec<A::Agg>,
{
    let graph_bytes = graphbolt_graph::io::to_binary(&engine.graph().edges());
    let ck = Checkpoint::try_capture(engine, value_codec, agg_codec)?;
    let mut payload = Vec::with_capacity(24 + graph_bytes.len() + ck.as_bytes().len());
    payload.extend_from_slice(&(engine.graph().num_vertices() as u64).to_be_bytes());
    payload.extend_from_slice(&(graph_bytes.len() as u64).to_be_bytes());
    payload.extend_from_slice(&graph_bytes);
    payload.extend_from_slice(&(ck.as_bytes().len() as u64).to_be_bytes());
    payload.extend_from_slice(ck.as_bytes());

    let mut buf = Vec::with_capacity(4 + 2 + 8 + 8 + payload.len());
    buf.extend_from_slice(FILE_MAGIC);
    buf.extend_from_slice(&FILE_VERSION.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&fnv1a(&payload).to_be_bytes());
    buf.extend_from_slice(&payload);
    Ok(buf)
}

/// Writes checkpoint `seq` of `engine` into `dir` atomically: the bytes
/// land in a temp file which is then renamed to its final
/// `ck-<seq>.gbsf` name, so a crash mid-write never leaves a partial
/// file under the recoverable name. Returns the final path.
///
/// Fault-injection site `checkpoint::write` (action `Truncate`) cuts the
/// byte stream short *before* the write, simulating the torn write that
/// atomic rename cannot prevent on non-atomic filesystems.
///
/// # Errors
///
/// Propagates filesystem failures as [`CheckpointError::Io`] and capture
/// failures as [`CheckpointError::NotInitialized`] /
/// [`CheckpointError::StateInconsistent`].
pub fn write_session_checkpoint<A, CV, CG>(
    dir: &std::path::Path,
    engine: &StreamingEngine<A>,
    seq: u64,
    value_codec: &CV,
    agg_codec: &CG,
) -> Result<std::path::PathBuf, CheckpointError>
where
    A: Algorithm,
    CV: StateCodec<A::Value>,
    CG: StateCodec<A::Agg>,
{
    let mut bytes = try_session_file_bytes(engine, seq, value_codec, agg_codec)?;
    if let Some(keep) = crate::fault::fire_truncation(engine.stats(), "checkpoint::write") {
        bytes.truncate(keep);
    }
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".tmp-{}", checkpoint_file_name(seq)));
    let path = dir.join(checkpoint_file_name(seq));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Parses a session-checkpoint container back into its parts.
///
/// # Errors
///
/// [`CheckpointError::Truncated`]/[`CheckpointError::Format`] on a
/// malformed container, [`CheckpointError::Corrupted`] when the checksum
/// disagrees with the payload.
pub fn parse_session_file(
    data: &[u8],
) -> Result<(u64, GraphSnapshot, Checkpoint), CheckpointError> {
    let mut data = Reader::new(data);
    let magic = data.take(4)?;
    if magic != FILE_MAGIC {
        return Err(CheckpointError::Format(format!(
            "bad session-file magic {magic:?}"
        )));
    }
    let version = data.u16()?;
    if version != FILE_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported session-file version {version}"
        )));
    }
    let seq = data.u64()?;
    let checksum = data.u64()?;
    if fnv1a(data.rest()) != checksum {
        return Err(CheckpointError::Corrupted);
    }
    let n = data.u64()? as usize;
    // `graph_len` and `ck_len` are untrusted: `take` refuses a length
    // beyond the payload before anything is copied out.
    let graph_len = data.u64()? as usize;
    let edges = graphbolt_graph::io::from_binary(data.take(graph_len)?)
        .map_err(|e| CheckpointError::Format(format!("embedded graph: {e}")))?;
    let ck_len = data.u64()? as usize;
    let ck = Checkpoint::from_bytes(data.take(ck_len)?);
    // The checksum proves the bytes are the ones written, not that they
    // are self-consistent: a file whose embedded graph references a
    // vertex >= its own recorded `n` would panic inside the CSR
    // constructor on the restore path. Reject it as a format error.
    if let Some(e) = edges
        .iter()
        .find(|e| e.src as usize >= n || e.dst as usize >= n)
    {
        return Err(CheckpointError::Format(format!(
            "edge ({}, {}) out of range for vertex count {n}",
            e.src, e.dst
        )));
    }
    // lint:allow(panic-reachability) — the endpoint validation above
    // makes the constructor's range asserts unreachable from restore.
    Ok((seq, GraphSnapshot::from_edges(n, &edges), ck))
}

/// Highest checkpoint sequence number present in `dir`, or `None` when
/// the directory is missing or holds no checkpoint. Session workers seed
/// their counter from this so new checkpoints always sort after existing
/// ones.
pub fn latest_checkpoint_seq(dir: &std::path::Path) -> Option<u64> {
    let entries = std::fs::read_dir(dir).ok()?;
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| parse_checkpoint_seq(&e.file_name().to_string_lossy()))
        .max()
}

/// Deletes all but the newest `keep` checkpoints in `dir`, along with any
/// orphaned `.tmp-*` file a crash left between write and rename. Removal
/// failures are ignored — stale checkpoints are garbage, not state.
pub fn prune_session_checkpoints(dir: &std::path::Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut seqs: Vec<u64> = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(seq) = parse_checkpoint_seq(&name) {
            seqs.push(seq);
        } else if name.starts_with(".tmp-") && name.ends_with(FILE_SUFFIX) {
            // A crash between fs::write and fs::rename orphans the temp
            // file; the caller only prunes between writes, so any temp
            // file seen here is dead.
            let _ = std::fs::remove_file(entry.path());
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for seq in seqs.into_iter().skip(keep) {
        let _ = std::fs::remove_file(dir.join(checkpoint_file_name(seq)));
    }
}

/// A successfully recovered session checkpoint.
pub struct RecoveredSession<A: Algorithm> {
    /// The reconstructed engine, ready to refine the next batch.
    pub engine: StreamingEngine<A>,
    /// Sequence number of the checkpoint that loaded.
    pub seq: u64,
    /// Newer checkpoints that were skipped as truncated, corrupted, or
    /// otherwise unloadable.
    pub skipped: usize,
}

/// Scans `dir` for session checkpoints and restores the newest loadable
/// one, skipping truncated/corrupted/mismatched files in favour of the
/// previous good checkpoint (the crash-recovery contract: a torn write
/// must cost at most one checkpoint interval, never the session).
///
/// Returns `Ok(None)` when the directory holds no checkpoint at all.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] when the directory exists but cannot
/// be read, and the *last* decode error when every present checkpoint
/// fails to load.
pub fn recover_session<A, CV, CG>(
    dir: &std::path::Path,
    alg: A,
    opts: EngineOptions,
    value_codec: &CV,
    agg_codec: &CG,
) -> Result<Option<RecoveredSession<A>>, CheckpointError>
where
    A: Algorithm + Clone,
    CV: StateCodec<A::Value>,
    CG: StateCodec<A::Agg>,
{
    if !dir.exists() {
        return Ok(None);
    }
    let mut seqs: Vec<u64> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| parse_checkpoint_seq(&e.file_name().to_string_lossy()))
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut skipped = 0;
    let mut last_err = None;
    for seq in seqs {
        let attempt = (|| -> Result<StreamingEngine<A>, CheckpointError> {
            let data = std::fs::read(dir.join(checkpoint_file_name(seq)))?;
            let (_, graph, ck) = parse_session_file(&data)?;
            ck.restore(graph, alg.clone(), opts, value_codec, agg_codec)
        })();
        match attempt {
            Ok(engine) => {
                return Ok(Some(RecoveredSession {
                    engine,
                    seq,
                    skipped,
                }))
            }
            Err(e) => {
                skipped += 1;
                last_err = Some(e);
            }
        }
    }
    match last_err {
        None => Ok(None),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_algorithms::TestRank;
    use crate::bsp::run_bsp;
    use crate::options::ExecutionMode;
    use crate::stats::EngineStats;
    use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};

    fn engine() -> StreamingEngine<TestRank> {
        let g = GraphBuilder::new(6)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 0, 1.0)
            .add_edge(2, 4, 1.0)
            .add_edge(4, 5, 1.0)
            .build();
        let mut e = StreamingEngine::new(g, TestRank, EngineOptions::with_iterations(8));
        e.run_initial();
        e
    }

    #[test]
    fn round_trip_preserves_values_and_store() {
        let original = engine();
        let ck = Checkpoint::capture(&original, &F64Codec, &F64Codec);
        let restored = ck
            .restore(
                original.graph().clone(),
                TestRank,
                *original.options(),
                &F64Codec,
                &F64Codec,
            )
            .unwrap();
        assert_eq!(original.values(), restored.values());
        assert_eq!(
            original.stored_aggregations(),
            restored.stored_aggregations()
        );
    }

    #[test]
    fn restored_engine_refines_like_the_original() {
        let mut original = engine();
        let ck = Checkpoint::capture(&original, &F64Codec, &F64Codec);
        let mut restored = ck
            .restore(
                original.graph().clone(),
                TestRank,
                *original.options(),
                &F64Codec,
                &F64Codec,
            )
            .unwrap();

        let mut batch = MutationBatch::new();
        batch.add(Edge::new(5, 0, 1.0)).delete(Edge::new(2, 3, 1.0));
        original.apply_batch(&batch).unwrap();
        restored.apply_batch(&batch).unwrap();
        assert_eq!(original.values(), restored.values());

        // And both still match from-scratch.
        let scratch = run_bsp(
            &TestRank,
            original.graph(),
            original.options(),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for (a, b) in restored.values().iter().zip(&scratch.vals) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn round_trip_survives_prior_refinement() {
        // Capture AFTER a batch: frozen tails must round-trip too.
        let mut original = engine();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 4, 1.0));
        original.apply_batch(&batch).unwrap();

        let ck = Checkpoint::capture(&original, &F64Codec, &F64Codec);
        let mut restored = ck
            .restore(
                original.graph().clone(),
                TestRank,
                *original.options(),
                &F64Codec,
                &F64Codec,
            )
            .unwrap();
        let mut batch2 = MutationBatch::new();
        batch2
            .delete(Edge::new(0, 4, 1.0))
            .add(Edge::new(5, 2, 1.0));
        original.apply_batch(&batch2).unwrap();
        restored.apply_batch(&batch2).unwrap();
        assert_eq!(original.values(), restored.values());
    }

    #[test]
    fn mismatched_graph_is_rejected() {
        let original = engine();
        let ck = Checkpoint::capture(&original, &F64Codec, &F64Codec);
        let other = GraphBuilder::new(3).add_edge(0, 1, 1.0).build();
        let Err(err) = ck.restore(other, TestRank, *original.options(), &F64Codec, &F64Codec)
        else {
            panic!("mismatched graph accepted");
        };
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let original = engine();
        let ck = Checkpoint::capture(&original, &F64Codec, &F64Codec);
        let cut = Checkpoint::from_bytes(ck.as_bytes()[..ck.as_bytes().len() - 5].to_vec());
        let Err(err) = cut.restore(
            original.graph().clone(),
            TestRank,
            *original.options(),
            &F64Codec,
            &F64Codec,
        ) else {
            panic!("truncated checkpoint accepted");
        };
        assert_eq!(err, CheckpointError::Truncated);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphbolt-ckpt-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn capture_of_uninitialized_engine_is_a_typed_error() {
        // Regression: `Checkpoint::capture` used to panic here; the
        // service path now reports `NotInitialized` all the way up
        // through `write_session_checkpoint` and leaves no file behind.
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let e = StreamingEngine::new(g, TestRank, EngineOptions::with_iterations(4));
        assert_eq!(
            Checkpoint::try_capture(&e, &F64Codec, &F64Codec).err(),
            Some(CheckpointError::NotInitialized)
        );
        assert_eq!(
            try_session_file_bytes(&e, 1, &F64Codec, &F64Codec).err(),
            Some(CheckpointError::NotInitialized)
        );
        let dir = tmpdir("uninit");
        assert_eq!(
            write_session_checkpoint(&dir, &e, 1, &F64Codec, &F64Codec).err(),
            Some(CheckpointError::NotInitialized)
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "failed capture must not leave files"
        );
    }

    #[test]
    fn session_file_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let original = engine();
        write_session_checkpoint(&dir, &original, 3, &F64Codec, &F64Codec).unwrap();
        let rec = recover_session(&dir, TestRank, *original.options(), &F64Codec, &F64Codec)
            .unwrap()
            .expect("checkpoint present");
        assert_eq!(rec.seq, 3);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.engine.values(), original.values());
        assert_eq!(
            rec.engine.graph().num_edges(),
            original.graph().num_edges()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_truncated_newest_checkpoint() {
        let dir = tmpdir("skip-truncated");
        let original = engine();
        write_session_checkpoint(&dir, &original, 1, &F64Codec, &F64Codec).unwrap();
        // Simulate a torn write of checkpoint 2: half the bytes.
        let full = try_session_file_bytes(&original, 2, &F64Codec, &F64Codec).unwrap();
        std::fs::write(dir.join(checkpoint_file_name(2)), &full[..full.len() / 2]).unwrap();
        let rec = recover_session(&dir, TestRank, *original.options(), &F64Codec, &F64Codec)
            .unwrap()
            .expect("good checkpoint remains");
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.skipped, 1);
        assert_eq!(rec.engine.values(), original.values());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let original = engine();
        let mut data = try_session_file_bytes(&original, 7, &F64Codec, &F64Codec).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xff;
        assert_eq!(
            parse_session_file(&data).unwrap_err(),
            CheckpointError::Corrupted
        );
    }

    #[test]
    fn out_of_range_edge_is_a_format_error_not_a_panic() {
        // A checksum-valid file whose recorded vertex count is smaller
        // than what the embedded edges reference must be rejected as a
        // format error; before endpoint validation it panicked inside
        // the CSR constructor on the restore path.
        let original = engine();
        let mut data = try_session_file_bytes(&original, 3, &F64Codec, &F64Codec).unwrap();
        // Header: magic(4) + version(2) + seq(8) + checksum(8) = 22
        // bytes; the payload opens with the big-endian vertex count.
        data[22..30].copy_from_slice(&1u64.to_be_bytes());
        let checksum = fnv1a(&data[22..]);
        data[14..22].copy_from_slice(&checksum.to_be_bytes());
        match parse_session_file(&data).unwrap_err() {
            CheckpointError::Format(msg) => {
                assert!(msg.contains("out of range"), "{msg}");
            }
            other => panic!("expected Format error, got {other:?}"),
        }
    }

    #[test]
    fn empty_or_missing_dir_recovers_to_none() {
        let dir = tmpdir("empty");
        assert!(
            recover_session(&dir, TestRank, EngineOptions::default(), &F64Codec, &F64Codec)
                .unwrap()
                .is_none()
        );
        let missing = dir.join("nope");
        assert!(recover_session(
            &missing,
            TestRank,
            EngineOptions::default(),
            &F64Codec,
            &F64Codec
        )
        .unwrap()
        .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_keeps_the_newest_checkpoints() {
        let dir = tmpdir("prune");
        let original = engine();
        for seq in 0..5 {
            write_session_checkpoint(&dir, &original, seq, &F64Codec, &F64Codec).unwrap();
        }
        prune_session_checkpoints(&dir, 2);
        let mut left: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_checkpoint_seq(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_removes_orphaned_temp_files() {
        let dir = tmpdir("orphan-tmp");
        let original = engine();
        write_session_checkpoint(&dir, &original, 1, &F64Codec, &F64Codec).unwrap();
        // Simulate a crash between fs::write and fs::rename.
        let orphan = dir.join(format!(".tmp-{}", checkpoint_file_name(2)));
        std::fs::write(&orphan, b"partial").unwrap();
        prune_session_checkpoints(&dir, 2);
        assert!(!orphan.exists(), "orphaned temp file must be cleaned up");
        assert!(dir.join(checkpoint_file_name(1)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_checkpoint_seq_scans_the_directory() {
        let dir = tmpdir("latest-seq");
        assert_eq!(latest_checkpoint_seq(&dir), None);
        let original = engine();
        for seq in [2, 7, 4] {
            write_session_checkpoint(&dir, &original, seq, &F64Codec, &F64Codec).unwrap();
        }
        assert_eq!(latest_checkpoint_seq(&dir), Some(7));
        assert_eq!(latest_checkpoint_seq(&dir.join("missing")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_enforces_memory_budget() {
        use crate::streaming::DegradeLevel;
        let original = engine();
        let ck = Checkpoint::capture(&original, &F64Codec, &F64Codec);
        let mut opts = *original.options();
        opts.memory_budget = Some(1); // any non-empty store exceeds this
        let restored = ck
            .restore(
                original.graph().clone(),
                TestRank,
                opts,
                &F64Codec,
                &F64Codec,
            )
            .unwrap();
        assert_ne!(
            restored.degrade_level(),
            DegradeLevel::None,
            "over-budget restored store must degrade before serving"
        );
        // Degradation preserves the BSP guarantee.
        for (a, b) in restored.values().iter().zip(original.values()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn vec_codec_round_trips() {
        let mut buf = Vec::new();
        let v = vec![1.5, -2.25, 0.0];
        VecF64Codec.write(&v, &mut buf);
        VecF64Codec.write(&vec![], &mut buf);
        let mut bytes = Reader::new(&buf);
        assert_eq!(VecF64Codec.read(&mut bytes).unwrap(), v);
        assert_eq!(VecF64Codec.read(&mut bytes).unwrap(), Vec::<f64>::new());
        assert_eq!(
            VecF64Codec.read(&mut bytes),
            Err(CheckpointError::Truncated)
        );
    }
}
