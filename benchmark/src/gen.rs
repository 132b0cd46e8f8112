//! Seeded input generation: the RNG, the zipfian sampler and the four op
//! streams.
//!
//! Everything here is the benchmark's own code so that a later change to
//! the repository's `workloads` crate cannot silently change the inputs
//! two commits are compared on. A stream is materialised completely in
//! set-up; the timed phase only walks it.

use crate::PAGE;

/// SplitMix64: small, fast, and good enough to drive zipf draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finaliser, also used as the slot hash.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipfian sampler over `0..n` (Gray et al. inversion, as in YCSB).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// One `CpFile` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub file: u32,
    pub write: bool,
    pub offset: u64,
    pub len: u32,
}

/// A group of ops the client issues back to back and waits for: a fleet
/// request, a kv probe, a tier op, a 1 MiB chunk of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Scheduled arrival in virtual ns after the run starts (open loop).
    /// Closed-loop streams leave it 0: the request is due when the
    /// previous one completes.
    pub arrival_ns: u64,
    pub tenant: u32,
    pub first_op: u32,
    pub ops: u32,
}

/// A file of the dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    pub path: String,
    pub bytes: u64,
    pub tenant: Option<u32>,
}

/// The generated input of one workload pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub files: Vec<FileSpec>,
    pub requests: Vec<Request>,
    pub ops: Vec<Op>,
    pub open_loop: bool,
}

impl Stream {
    fn new(files: Vec<FileSpec>, open_loop: bool) -> Self {
        Stream { files, requests: Vec::new(), ops: Vec::new(), open_loop }
    }

    fn begin_request(&mut self, arrival_ns: u64, tenant: u32) {
        self.requests.push(Request { arrival_ns, tenant, first_op: self.ops.len() as u32, ops: 0 });
    }

    fn push(&mut self, file: u32, write: bool, offset: u64, len: u64) {
        self.ops.push(Op { file, write, offset, len: len as u32 });
        self.requests.last_mut().expect("begin_request first").ops += 1;
    }
}

// ----- seq_stream ------------------------------------------------------------

pub const SEQ_FILE_BYTES: u64 = 512 << 20;
pub const SEQ_READ_BYTES: u64 = 16 << 10;
pub const SEQ_READS: u64 = 3_000_000;
/// Reads per request: the client consumes the stream in 1 MiB chunks.
pub const SEQ_CHUNK_READS: u64 = 64;

/// Reads between two skips of the scan: 32 MiB.
pub const SEQ_SEGMENT_READS: u64 = 2048;

/// Sequential 16 KiB reads over one file, wrapping at its end. Every
/// 32 MiB the scan skips forward by a seeded distance of up to 8 MiB. A
/// lap of the file then still reads about 455 MiB, more than the 256 MiB
/// cache holds, so what lies ahead has always been evicted: the seed moves
/// where the stream restarts (and with it the few reads that miss)
/// without moving the hit rate. More than 99.9 % of reads follow their
/// predecessor.
pub fn seq_stream(seed: u64, reads: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let slots = SEQ_FILE_BYTES / SEQ_READ_BYTES;
    let mut s = Stream::new(
        vec![FileSpec { path: "/bench/seq.bin".into(), bytes: SEQ_FILE_BYTES, tenant: None }],
        false,
    );
    let mut slot = rng.below(slots);
    for i in 0..reads {
        if i > 0 && i % SEQ_SEGMENT_READS == 0 {
            slot = (slot + rng.below(512)) % slots;
        }
        if i % SEQ_CHUNK_READS == 0 {
            s.begin_request(0, 0);
        }
        s.push(0, false, slot * SEQ_READ_BYTES, SEQ_READ_BYTES);
        slot = (slot + 1) % slots;
    }
    s
}

// ----- kv_probe --------------------------------------------------------------

pub const KV_KEYS: u64 = 16_384;
pub const KV_RECORD_PAGES: u64 = 8;
pub const KV_PROBES: u64 = 20_000;
pub const KV_THETA: f64 = 0.99;

/// Zipfian probes: one index page, then the key's 8 record pages at a
/// hashed slot of the data region.
pub fn kv_probe(seed: u64, probes: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(KV_KEYS, KV_THETA);
    let mut s = Stream::new(
        vec![FileSpec {
            path: "/bench/kv.bin".into(),
            bytes: (KV_KEYS + KV_KEYS * KV_RECORD_PAGES) * PAGE,
            tenant: None,
        }],
        false,
    );
    for _ in 0..probes {
        let key = zipf.sample(&mut rng);
        s.begin_request(0, 0);
        s.push(0, false, key * PAGE, PAGE);
        let slot = mix(key ^ seed.rotate_left(17)) % KV_KEYS;
        let base = (KV_KEYS + slot * KV_RECORD_PAGES) * PAGE;
        for j in 0..KV_RECORD_PAGES {
            s.push(0, false, base + j * PAGE, PAGE);
        }
    }
    s
}

// ----- fleet_open ------------------------------------------------------------

pub const FLEET_REQUESTS: u64 = 400_000;
pub const FLEET_RATE: u64 = 4_000;
pub const FLEET_SWEEP_REQUESTS: u64 = 100_000;
pub const FLEET_SWEEP_RATES: [u64; 5] = [2_000, 3_000, 4_000, 5_000, 6_000];
pub const FLEET_READS_PER_REQUEST: u64 = 4;
pub const FLEET_READ_BYTES: u64 = 16 << 10;
pub const FLEET_THETA: f64 = 0.9;

/// Name, random-burst flag and file size of each tenant, hottest first
/// (the `fleet_compare` mix). QoS classes are assigned in `workload.rs`.
pub const FLEET_TENANTS: [(&str, bool, u64); 4] = [
    ("batch-a", true, 32 << 20),
    ("batch-b", true, 32 << 20),
    ("standard", false, 128 << 20),
    ("gold", false, 128 << 20),
];

/// Poisson arrivals at `rate` requests per virtual second, tenants drawn
/// zipfian; random tenants burst from a hashed offset, sequential tenants
/// follow a per-file cursor.
pub fn fleet_open(seed: u64, requests: u64, rate: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(FLEET_TENANTS.len() as u64, FLEET_THETA);
    let files = FLEET_TENANTS
        .iter()
        .enumerate()
        .map(|(t, &(_, _, bytes))| FileSpec {
            path: format!("/fleet/t{t}/f0.bin"),
            bytes,
            tenant: Some(t as u32),
        })
        .collect();
    let mut s = Stream::new(files, true);
    let mean_gap_ns = 1e9 / rate as f64;
    let mut arrival = 0u64;
    let mut cursors = [0u64; FLEET_TENANTS.len()];
    for _ in 0..requests {
        let tenant = zipf.sample(&mut rng) as usize;
        let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        arrival += (-u.ln() * mean_gap_ns) as u64;
        let (_, random, bytes) = FLEET_TENANTS[tenant];
        let slots = bytes / FLEET_READ_BYTES;
        let burst = rng.below(slots);
        s.begin_request(arrival, tenant as u32);
        for r in 0..FLEET_READS_PER_REQUEST {
            let slot = if random {
                (burst + r) % slots
            } else {
                let c = cursors[tenant];
                cursors[tenant] = (c + 1) % slots;
                c
            };
            s.push(tenant as u32, false, slot * FLEET_READ_BYTES, FLEET_READ_BYTES);
        }
    }
    s
}

// ----- tier_rw ---------------------------------------------------------------

pub const TIER_RECORDS: u64 = 9_216;
pub const TIER_RECORD_BYTES: u64 = 32 << 10;
pub const TIER_WRITE_BYTES: u64 = 16 << 10;
pub const TIER_OPS: u64 = 400_000;
pub const TIER_THETA: f64 = 0.99;

/// Zipfian record ops over a 288 MiB file: 75 % whole-record 32 KiB
/// reads, 25 % 16 KiB writes to one half of the record.
pub fn tier_rw(seed: u64, ops: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(TIER_RECORDS, TIER_THETA);
    let mut s = Stream::new(
        vec![FileSpec {
            path: "/bench/tier.bin".into(),
            bytes: TIER_RECORDS * TIER_RECORD_BYTES,
            tenant: None,
        }],
        false,
    );
    for _ in 0..ops {
        let key = zipf.sample(&mut rng);
        let slot = mix(key ^ seed.rotate_left(29)) % TIER_RECORDS;
        let base = slot * TIER_RECORD_BYTES;
        let draw = rng.next_u64();
        s.begin_request(0, 0);
        if draw.is_multiple_of(4) {
            let half = (draw >> 2) % 2;
            s.push(0, true, base + half * TIER_WRITE_BYTES, TIER_WRITE_BYTES);
        } else {
            s.push(0, false, base, TIER_RECORD_BYTES);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(seed: u64) -> [Stream; 4] {
        [
            seq_stream(seed, 20_000),
            kv_probe(seed, 2_000),
            fleet_open(seed, 5_000, FLEET_RATE),
            tier_rw(seed, 5_000),
        ]
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let (a, b, c) = (all(42), all(42), all(43));
        for i in 0..4 {
            assert_eq!(a[i], b[i], "generator {i} is not a function of its seed");
            assert_ne!(a[i].ops, c[i].ops, "generator {i} ignores its seed");
        }
    }

    #[test]
    fn ops_stay_inside_their_files_and_requests_cover_all_ops() {
        for s in all(7) {
            for op in &s.ops {
                assert!(op.offset + op.len as u64 <= s.files[op.file as usize].bytes);
            }
            let covered: u64 = s.requests.iter().map(|r| r.ops as u64).sum();
            assert_eq!(covered, s.ops.len() as u64);
        }
    }

    #[test]
    fn seq_stream_is_more_than_99_percent_sequential() {
        let s = seq_stream(1, 200_000);
        let slots = SEQ_FILE_BYTES / SEQ_READ_BYTES;
        let follows = s
            .ops
            .windows(2)
            .filter(|w| (w[0].offset / SEQ_READ_BYTES + 1) % slots == w[1].offset / SEQ_READ_BYTES)
            .count();
        assert!(follows as f64 / s.ops.len() as f64 > 0.99);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(3);
        let mut hot = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k < 1000);
            hot += (k < 10) as u32;
        }
        assert!(hot > 3_000, "top 1 % of keys drew only {hot} of 10000");
    }

    #[test]
    fn fleet_arrivals_follow_the_requested_rate() {
        let s = fleet_open(5, 40_000, 4_000);
        let span_s = s.requests.last().unwrap().arrival_ns as f64 / 1e9;
        let rate = s.requests.len() as f64 / span_s;
        assert!((rate - 4_000.0).abs() < 100.0, "measured {rate} req/s");
        assert!(s.requests.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
    }
}
