//! A from-scratch Snappy block-format codec plus the paper's parallel
//! file-compression workload (Figure 9b).
//!
//! The encoder follows the public Snappy format description: a varint
//! uncompressed-length preamble, then a stream of literal and copy
//! elements. Literals use tag `00` with the length (or a length escape) in
//! the upper bits; copies use tag `01` (4–11 byte length, 11-bit offset)
//! or tag `10` (1–64 byte length, 16-bit offset). Matching uses a greedy
//! hash of 4-byte windows, like the reference implementation's fast path.
//!
//! The workload mirrors §5.5: 16 threads each stream 100 MB-class files
//! through the runtime (one or two large reads per file), compress them
//! for real, and write the output — a memory-hungry streaming pattern
//! whose throughput is very sensitive to prefetch/eviction policy when
//! memory is smaller than the dataset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossprefetch::{Advice, Mode, Runtime, RuntimeConfig};
use simclock::{transfer_ns, Throughput};
use simos::Os;

const MAX_OFFSET_1BYTE: usize = 1 << 11;
const MAX_OFFSET_2BYTE: usize = 1 << 16;

fn emit_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(data: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in data.iter().enumerate().take(10) {
        v |= ((b & 0x7F) as u64) << (7 * i);
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    let n = lit.len() - 1;
    if n < 60 {
        out.push((n as u8) << 2);
    } else if n < 256 {
        out.push(60 << 2);
        out.push(n as u8);
    } else if n < 65536 {
        out.push(61 << 2);
        out.extend_from_slice(&(n as u16).to_le_bytes());
    } else {
        out.push(62 << 2);
        out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
    }
    out.extend_from_slice(lit);
}

fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    // Long matches split into <=64-byte copies.
    while len > 0 {
        let take = len.min(64);
        if (4..=11).contains(&take) && offset < MAX_OFFSET_1BYTE {
            out.push(0b01 | (((take - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
            out.push(offset as u8);
        } else {
            debug_assert!(offset < MAX_OFFSET_2BYTE);
            out.push(0b10 | (((take - 1) as u8) << 2));
            out.extend_from_slice(&(offset as u16).to_le_bytes());
        }
        len -= take;
    }
}

fn hash4(data: &[u8], pos: usize) -> usize {
    let word = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (word.wrapping_mul(0x1E35_A7BD) >> 18) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 14;

/// Compresses `input` into the Snappy block format.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    emit_varint(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }
    let mut table = [0usize; HASH_SIZE];
    let mut pos = 0usize;
    let mut lit_start = 0usize;
    // Stop matching near the end; tail is a literal.
    let end = input.len().saturating_sub(4);
    while pos < end {
        let h = hash4(input, pos);
        let candidate = table[h];
        table[h] = pos;
        let offset = pos - candidate;
        if candidate < pos
            && offset < MAX_OFFSET_2BYTE
            && input[candidate..candidate + 4] == input[pos..pos + 4]
        {
            // Extend the match.
            let mut len = 4;
            while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            if lit_start < pos {
                emit_literal(&mut out, &input[lit_start..pos]);
            }
            emit_copy(&mut out, offset, len);
            pos += len;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    if lit_start < input.len() {
        emit_literal(&mut out, &input[lit_start..]);
    }
    out
}

/// Error from [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnappyError(pub &'static str);

impl std::fmt::Display for SnappyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid snappy stream: {}", self.0)
    }
}

impl std::error::Error for SnappyError {}

/// Decompresses a Snappy block-format stream.
///
/// # Errors
///
/// Returns [`SnappyError`] on malformed input.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, SnappyError> {
    let (expected, mut pos) = read_varint(data).ok_or(SnappyError("bad length varint"))?;
    let mut out = Vec::with_capacity(expected as usize);
    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag & 0b11 {
            0b00 => {
                let n = (tag >> 2) as usize;
                let len = if n < 60 {
                    n + 1
                } else {
                    let extra = n - 59;
                    if pos + extra > data.len() {
                        return Err(SnappyError("truncated literal length"));
                    }
                    let mut v = 0usize;
                    for i in 0..extra {
                        v |= (data[pos + i] as usize) << (8 * i);
                    }
                    pos += extra;
                    v + 1
                };
                if pos + len > data.len() {
                    return Err(SnappyError("truncated literal"));
                }
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            }
            0b01 => {
                if pos >= data.len() {
                    return Err(SnappyError("truncated copy-1"));
                }
                let len = 4 + ((tag >> 2) & 0b111) as usize;
                let offset = (((tag >> 5) as usize) << 8) | data[pos] as usize;
                pos += 1;
                copy_within(&mut out, offset, len)?;
            }
            0b10 => {
                if pos + 2 > data.len() {
                    return Err(SnappyError("truncated copy-2"));
                }
                let len = 1 + (tag >> 2) as usize;
                let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
                pos += 2;
                copy_within(&mut out, offset, len)?;
            }
            _ => return Err(SnappyError("copy-4 tags are not emitted by this encoder")),
        }
    }
    if out.len() as u64 != expected {
        return Err(SnappyError("length mismatch"));
    }
    Ok(out)
}

fn copy_within(out: &mut Vec<u8>, offset: usize, len: usize) -> Result<(), SnappyError> {
    if offset == 0 || offset > out.len() {
        return Err(SnappyError("copy offset out of range"));
    }
    let start = out.len() - offset;
    // Overlapping copies are byte-serial by definition.
    for i in 0..len {
        let b = out[start + i];
        out.push(b);
    }
    Ok(())
}

/// Compression-workload parameters (§5.5).
#[derive(Debug, Clone)]
pub struct SnappyConfig {
    /// Worker threads (paper: 16).
    pub threads: usize,
    /// Files per thread.
    pub files_per_thread: usize,
    /// Bytes per input file (paper: 100 MB; scaled in benches).
    pub file_bytes: u64,
    /// Mechanism mode.
    pub mode: Mode,
    /// Real-compute rate charged to virtual time (bytes/sec of
    /// compression work; ~300 MB/s per core is typical for Snappy-class
    /// codecs on this hardware generation).
    pub compress_bytes_per_sec: f64,
}

impl Default for SnappyConfig {
    fn default() -> Self {
        Self {
            threads: 16,
            files_per_thread: 4,
            file_bytes: 8 << 20,
            mode: Mode::PredictOpt,
            compress_bytes_per_sec: 300e6,
        }
    }
}

/// Outcome of the compression workload.
#[derive(Debug, Clone, Copy)]
pub struct SnappyResult {
    /// Input bytes compressed.
    pub bytes_in: u64,
    /// Output bytes produced.
    pub bytes_out: u64,
    /// Slowest worker's virtual span.
    pub elapsed_ns: u64,
}

impl SnappyResult {
    /// Input MB/s of virtual time.
    pub fn mbps(&self) -> f64 {
        Throughput::new(self.bytes_in, 0, self.elapsed_ns).mb_per_sec()
    }

    /// Achieved compression ratio (in/out).
    pub fn ratio(&self) -> f64 {
        self.bytes_in as f64 / self.bytes_out.max(1) as f64
    }
}

/// Fills one input file with compressible, text-like content (log lines
/// with per-file variation), bypassing the timed I/O path.
fn fill_compressible(os: &Arc<Os>, ino: simos::InodeId, bytes: u64, salt: u64) {
    let mut line = Vec::with_capacity(1 << 16);
    let mut offset = 0u64;
    let mut seq = 0u64;
    while offset < bytes {
        line.clear();
        while line.len() < 1 << 16 {
            line.extend_from_slice(
                format!(
                    "ts={:012} svc=ingest-{:02} level=INFO msg=\"object stored\" shard={:03}\n",
                    seq * 977 + salt,
                    salt % 37,
                    (seq * 7 + salt) % 512
                )
                .as_bytes(),
            );
            seq += 1;
        }
        let take = ((bytes - offset) as usize).min(line.len());
        os.store_content(ino, offset, &line[..take]);
        offset += take as u64;
    }
}

/// Runs the parallel compression workload on a shared OS.
///
/// Files are pre-created with compressible text-like content (cold
/// cache); each worker opens a file, reads it in two large reads (the
/// paper: "one or two read operations, mostly sequential"), compresses
/// for real, writes the `.sz` output, and moves to the next file.
pub fn run_snappy(os: &Arc<Os>, cfg: &SnappyConfig) -> SnappyResult {
    // Pre-create inputs.
    for t in 0..cfg.threads {
        for f in 0..cfg.files_per_thread {
            let ino = os
                .fs()
                .create_sized(&format!("/snappy/in-{t}-{f}"), cfg.file_bytes)
                .expect("fresh namespace");
            fill_compressible(os, ino, cfg.file_bytes, (t * 131 + f) as u64);
        }
    }
    let bytes_out_total = AtomicU64::new(0);
    let start = os.global().now();
    let spans = simclock::run_threads(os.global(), start, cfg.threads, |t, clock| {
        let runtime = Runtime::new(Arc::clone(os), RuntimeConfig::new(cfg.mode));
        let mut bytes_in = 0u64;
        for f in 0..cfg.files_per_thread {
            let input = runtime
                .open(clock, &format!("/snappy/in-{t}-{f}"))
                .expect("created above");
            if cfg.mode == Mode::AppOnly {
                // The paper modifies Snappy to fadvise after
                // open in the APPonly configuration.
                input.advise(clock, Advice::Sequential, 0, 0);
                input.readahead(clock, 0, cfg.file_bytes);
            }
            // Stream the file through buffered-I/O-sized reads
            // (what the OS actually sees under stdio): the
            // window dynamics of each mechanism apply here.
            let chunk = 512 * 1024u64;
            let mut data = Vec::with_capacity(cfg.file_bytes as usize);
            let mut offset = 0u64;
            while offset < cfg.file_bytes {
                let take = chunk.min(cfg.file_bytes - offset);
                data.extend(input.read(clock, offset, take));
                offset += take;
            }
            bytes_in += data.len() as u64;

            // Real compression, charged at the codec rate.
            let compressed = compress(&data);
            clock.advance(transfer_ns(data.len() as u64, cfg.compress_bytes_per_sec));
            bytes_out_total.fetch_add(compressed.len() as u64, Ordering::Relaxed);

            let out = runtime
                .create(clock, &format!("/snappy/out-{t}-{f}.sz"))
                .expect("unique output");
            out.write(clock, 0, &compressed);
            out.fsync(clock);
        }
        (bytes_in, clock.now() - start)
    });
    SnappyResult {
        bytes_in: spans.iter().map(|s| s.0).sum(),
        bytes_out: bytes_out_total.load(Ordering::Relaxed),
        elapsed_ns: spans.iter().map(|s| s.1).max().unwrap_or(1).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let data = b"hello hello hello hello world world world";
        let compressed = compress(data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn round_trip_empty() {
        let compressed = compress(b"");
        assert_eq!(decompress(&compressed).unwrap(), b"");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 10_000)
            .flatten()
            .copied()
            .collect();
        let compressed = compress(&data);
        assert!(compressed.len() * 10 < data.len());
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn incompressible_data_round_trips() {
        // SplitMix noise: no matches, pure literals.
        let mut data = vec![0u8; 100_000];
        let mut x = 0x12345u64;
        for b in &mut data {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 33) as u8;
        }
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
        // Overhead stays small.
        assert!(compressed.len() < data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn long_matches_split_into_copies() {
        let mut data = vec![b'x'; 1000];
        data.extend_from_slice(b"unique tail");
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let compressed = compress(b"some data some data some data");
        // Truncate mid-stream.
        let truncated = &compressed[..compressed.len() / 2];
        assert!(decompress(truncated).is_err());
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64] {
            let mut buf = Vec::new();
            emit_varint(&mut buf, v);
            assert_eq!(read_varint(&buf), Some((v, buf.len())));
        }
    }

    #[test]
    fn workload_completes_and_compresses() {
        use simos::{Device, DeviceConfig, FileSystem, FsKind, OsConfig};
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let cfg = SnappyConfig {
            threads: 2,
            files_per_thread: 1,
            file_bytes: 2 << 20,
            mode: Mode::PredictOpt,
            compress_bytes_per_sec: 300e6,
        };
        let result = run_snappy(&os, &cfg);
        assert_eq!(result.bytes_in, 2 * (2 << 20));
        assert!(result.bytes_out > 0);
        assert!(result.mbps() > 0.0);
        // Outputs exist.
        assert!(os.fs().lookup("/snappy/out-0-0.sz").is_some());
    }
}
