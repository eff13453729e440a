//! The benchmark's own input generator: keys, values and the whole op stream
//! come from `--seed` and nothing else, and are built before any timed phase.
//! The program under test only ever sees the generated bytes.

use crate::WorkloadKind;

/// SplitMix64: small, fast, and good enough to drive a workload.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything a
    /// workload mix can show.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent stream seed from the run seed and a label, so the
/// dataset, each thread and each phase draw from unrelated sequences.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng::new(h).next_u64()
}

/// Zipfian ranks over `n` items with exponent `theta`, sampled from the
/// exact cumulative distribution (no approximation in the head, which is
/// where a skewed workload spends its time).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Seed of the loaded data set. It is the same for every `--seed`: which keys
/// exist, what they hold and which of them are hot stay fixed, and `--seed`
/// decides the op streams drawn over them. With theta 0.99 the hottest key
/// takes a tenth of the traffic, so letting the seed pick the hot keys made
/// every metric (bytes included) swing by about 5 % from seed to seed with
/// the proof sizes of a handful of keys; fixing the data keeps runs with
/// different seeds comparable and lets the byte metrics have tight bounds.
pub const DATA_SEED: u64 = 0x5317_2020;

/// Skew of every zipfian draw in the benchmark.
pub const ZIPF_THETA: f64 = 0.99;
/// Bytes in every value the benchmark writes.
pub const VALUE_LEN: usize = 128;
/// Keys in one batched read.
pub const MULTI_KEYS: usize = 16;
/// Writes in one cross-shard batch: half updates, half appends.
pub const BATCH_WRITES: usize = 32;
/// Key ids at and above this mark name appended (time-ordered) keys.
const APPEND_BASE: u64 = 1 << 48;

/// The loaded key set and the rule that turns `(key, version)` into value
/// bytes. Values carry their own key id and version, so the oracle can tell
/// exactly which write a read returned.
pub struct Dataset {
    seed: u64,
    /// `keys[i]` is the bytes of loaded key `i`; they sort in index order.
    pub keys: Vec<Vec<u8>>,
    /// Zipf rank -> key index, a seeded shuffle so hot keys are spread over
    /// the key space (and over the shards) instead of clustered at the front.
    by_rank: Vec<u32>,
    zipf: Zipf,
}

impl Dataset {
    pub fn new(seed: u64, loaded: usize) -> Dataset {
        let keys = (0..loaded)
            .map(|i| format!("user/{i:08}").into_bytes())
            .collect();
        let mut by_rank: Vec<u32> = (0..loaded as u32).collect();
        let mut rng = Rng::new(derive_seed(seed, "rank-shuffle"));
        for i in (1..loaded).rev() {
            by_rank.swap(i, rng.below(i + 1));
        }
        Dataset {
            seed: derive_seed(seed, "values"),
            keys,
            by_rank,
            zipf: Zipf::new(loaded, ZIPF_THETA),
        }
    }

    pub fn loaded(&self) -> usize {
        self.keys.len()
    }

    /// A zipfian-hot loaded key index.
    pub fn hot_key(&self, rng: &mut Rng) -> u32 {
        self.by_rank[self.zipf.sample(rng)]
    }

    /// A key that is never written and sorts directly after loaded key `i`,
    /// so its absence proof runs through the populated part of the index.
    pub fn absent_key(&self, i: u32) -> Vec<u8> {
        format!("user/{i:08}/none").into_bytes()
    }

    /// The `seq`-th time-ordered key appended by `thread`.
    pub fn append_key(&self, thread: usize, seq: u64) -> Vec<u8> {
        format!("ts/{thread}/{seq:012}").into_bytes()
    }

    /// Key id of an appended key (loaded keys use their index).
    pub fn append_id(thread: usize, seq: u64) -> u64 {
        APPEND_BASE | (thread as u64) << 40 | seq
    }

    /// The value written as version `version` of key `key_id`.
    pub fn value(&self, key_id: u64, version: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(VALUE_LEN);
        out.extend_from_slice(&key_id.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        let mut rng = Rng::new(self.seed ^ key_id.rotate_left(17) ^ u64::from(version));
        while out.len() < VALUE_LEN {
            let word = rng.next_u64().to_le_bytes();
            let take = word.len().min(VALUE_LEN - out.len());
            out.extend_from_slice(&word[..take]);
        }
        out
    }

    /// The version a value claims to be, if it is a well-formed value of
    /// `key_id`: header and every filler byte must match.
    pub fn version_of(&self, key_id: u64, value: &[u8]) -> Option<u32> {
        if value.len() != VALUE_LEN || value[..8] != key_id.to_le_bytes() {
            return None;
        }
        let version = u32::from_le_bytes(value[8..12].try_into().ok()?);
        (self.value(key_id, version) == value).then_some(version)
    }

    /// User bytes (key + value) of the preloaded data set.
    pub fn loaded_user_bytes(&self) -> u64 {
        self.keys.iter().map(|k| (k.len() + VALUE_LEN) as u64).sum()
    }
}

/// One generated operation. Key arguments are loaded-key indices; versions
/// and append sequence numbers are assigned when the op runs, from the
/// writer's own counters, so a stream can be replayed from any position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Overwrite a loaded key this thread owns.
    Put(u32),
    /// Write the thread's next time-ordered key.
    Append,
    /// 16 owned updates (at `side[offset..]`) plus 16 appends, atomically.
    PutBatch(u32),
    /// Verified point read of a loaded key.
    Get(u32),
    /// Verified point read of a key that does not exist.
    GetAbsent(u32),
    /// Verified batched read of the 16 keys at `side[offset..]`.
    GetMulti(u32),
    /// Verified scan of `range_len` consecutive loaded keys from this index.
    Range(u32),
}

/// One client thread's operations for one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStream {
    pub ops: Vec<Op>,
    /// Key lists referenced by `PutBatch` and `GetMulti`.
    pub side: Vec<u32>,
    pub range_len: u32,
}

impl OpStream {
    /// The `count` keys a `PutBatch` or `GetMulti` at `offset` refers to.
    pub fn keys_at(&self, offset: u32, count: usize) -> &[u32] {
        &self.side[offset as usize..offset as usize + count]
    }

    /// Canonical bytes of the stream: what "same seed, same inputs" means.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.ops.len() * 5 + self.side.len() * 4 + 4);
        out.extend_from_slice(&self.range_len.to_le_bytes());
        for op in &self.ops {
            let (tag, arg) = match *op {
                Op::Put(k) => (0u8, k),
                Op::Append => (1, 0),
                Op::PutBatch(o) => (2, o),
                Op::Get(k) => (3, k),
                Op::GetAbsent(k) => (4, k),
                Op::GetMulti(o) => (5, o),
                Op::Range(s) => (6, s),
            };
            out.push(tag);
            out.extend_from_slice(&arg.to_le_bytes());
        }
        for key in &self.side {
            out.extend_from_slice(&key.to_le_bytes());
        }
        out
    }

    /// FNV-1a over [`OpStream::encode`], printed with each run so two runs
    /// can be seen to have used the same inputs.
    pub fn fingerprint(&self) -> u64 {
        self.encode().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Which loaded keys a thread may write: keys are striped over the client
/// threads so every key has a single writer. That keeps the model map exact
/// (no lost-update races between clients) and keeps concurrent cross-shard
/// batches from aborting each other on a shared key.
pub fn owned(key: u32, thread: usize, threads: usize) -> u32 {
    key - key % threads as u32 + thread as u32
}

/// Operations per mix cycle. The class mix inside a cycle is exact, not
/// sampled, so byte and latency averages do not wander with the draw of the
/// mix; only the order inside a cycle and the keys are random.
fn mix_cycle(workload: WorkloadKind) -> usize {
    match workload {
        WorkloadKind::IngestDurable | WorkloadKind::PointVerified => 10,
        WorkloadKind::ScanVerified => 1,
        WorkloadKind::ServedMixed => 20,
    }
}

/// Generate `cycles` mix cycles for one client thread. `phase` separates
/// the warm-up stream from the timed one.
pub fn generate(
    workload: WorkloadKind,
    data: &Dataset,
    seed: u64,
    phase: &str,
    thread: usize,
    threads: usize,
    cycles: usize,
) -> OpStream {
    assert!(
        data.loaded().is_multiple_of(threads),
        "loaded keys must stripe evenly over the client threads"
    );
    let mut rng = Rng::new(derive_seed(
        seed,
        &format!("{}/{phase}/{thread}", workload.name()),
    ));
    let range_len = workload.range_len();
    let mut stream = OpStream {
        ops: Vec::with_capacity(cycles * mix_cycle(workload)),
        side: Vec::new(),
        range_len,
    };
    let last_range_start = (data.loaded() as u32).saturating_sub(range_len);
    for cycle in 0..cycles {
        let first = stream.ops.len();
        match workload {
            WorkloadKind::IngestDurable => {
                // Nine single puts alternating hot update / fresh append
                // (the alternation carries across cycles, so the split is
                // half and half), then the cross-shard batch.
                for i in 0..9 {
                    if (cycle * 9 + i) % 2 == 0 {
                        stream
                            .ops
                            .push(Op::Put(owned(data.hot_key(&mut rng), thread, threads)));
                    } else {
                        stream.ops.push(Op::Append);
                    }
                }
                let offset = stream.side.len() as u32;
                push_distinct(&mut stream.side, BATCH_WRITES / 2, || {
                    owned(data.hot_key(&mut rng), thread, threads)
                });
                stream.ops.push(Op::PutBatch(offset));
            }
            WorkloadKind::PointVerified => {
                for _ in 0..8 {
                    stream.ops.push(Op::Get(data.hot_key(&mut rng)));
                }
                let offset = stream.side.len() as u32;
                push_distinct(&mut stream.side, MULTI_KEYS, || data.hot_key(&mut rng));
                stream.ops.push(Op::GetMulti(offset));
                stream.ops.push(Op::GetAbsent(data.hot_key(&mut rng)));
            }
            WorkloadKind::ScanVerified => {
                stream
                    .ops
                    .push(Op::Range(data.hot_key(&mut rng).min(last_range_start)));
            }
            WorkloadKind::ServedMixed => {
                for _ in 0..14 {
                    stream.ops.push(Op::Get(data.hot_key(&mut rng)));
                }
                for _ in 0..2 {
                    let offset = stream.side.len() as u32;
                    push_distinct(&mut stream.side, MULTI_KEYS, || data.hot_key(&mut rng));
                    stream.ops.push(Op::GetMulti(offset));
                }
                stream
                    .ops
                    .push(Op::Range(data.hot_key(&mut rng).min(last_range_start)));
                for _ in 0..3 {
                    stream
                        .ops
                        .push(Op::Put(owned(data.hot_key(&mut rng), thread, threads)));
                }
            }
        }
        // Ingest keeps its fixed order (the batch is every tenth op); the
        // read mixes are shuffled inside the cycle.
        if workload != WorkloadKind::IngestDurable {
            let cycle_ops = &mut stream.ops[first..];
            for i in (1..cycle_ops.len()).rev() {
                cycle_ops.swap(i, rng.below(i + 1));
            }
        }
    }
    stream
}

/// Append `count` distinct draws to `side`.
fn push_distinct(side: &mut Vec<u32>, count: usize, mut draw: impl FnMut() -> u32) {
    let start = side.len();
    while side.len() < start + count {
        let key = draw();
        if !side[start..].contains(&key) {
            side.push(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [WorkloadKind; 4] = [
        WorkloadKind::IngestDurable,
        WorkloadKind::PointVerified,
        WorkloadKind::ScanVerified,
        WorkloadKind::ServedMixed,
    ];

    #[test]
    fn same_seed_gives_byte_identical_streams_and_other_seeds_differ() {
        for workload in ALL {
            let data = Dataset::new(7, 2_000);
            let again = Dataset::new(7, 2_000);
            let other = Dataset::new(8, 2_000);
            for thread in 0..2 {
                let a = generate(workload, &data, 7, "timed", thread, 2, 300);
                let b = generate(workload, &again, 7, "timed", thread, 2, 300);
                let c = generate(workload, &other, 8, "timed", thread, 2, 300);
                assert_eq!(a.encode(), b.encode(), "{workload:?} thread {thread}");
                assert_eq!(a.fingerprint(), b.fingerprint());
                assert_ne!(a.encode(), c.encode(), "{workload:?} thread {thread}");
            }
            let t0 = generate(workload, &data, 7, "timed", 0, 2, 300);
            let t1 = generate(workload, &data, 7, "timed", 1, 2, 300);
            let warm = generate(workload, &data, 7, "warmup", 0, 2, 300);
            assert_ne!(t0.encode(), t1.encode(), "threads share a stream");
            assert_ne!(t0.encode(), warm.encode(), "phases share a stream");
        }
        assert_eq!(
            Dataset::new(7, 100).value(3, 1),
            Dataset::new(7, 100).value(3, 1)
        );
        assert_ne!(
            Dataset::new(7, 100).value(3, 1),
            Dataset::new(8, 100).value(3, 1)
        );
    }

    #[test]
    fn zipfian_head_mass_is_within_two_percent_of_theory() {
        let n = 20_000;
        let zipf = Zipf::new(n, ZIPF_THETA);
        let mut rng = Rng::new(42);
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let zeta = |k: usize| -> f64 { (1..=k).map(|r| 1.0 / (r as f64).powf(ZIPF_THETA)).sum() };
        for head in [1usize, 10, 100, 1_000] {
            let theory = zeta(head) / zeta(n);
            let seen = counts[..head].iter().sum::<u64>() as f64 / draws as f64;
            assert!(
                (seen - theory).abs() / theory < 0.02,
                "top {head}: saw {seen:.4}, theory {theory:.4}"
            );
        }
    }

    #[test]
    fn mixes_are_exact_and_writers_never_share_a_key() {
        let data = Dataset::new(1, 2_000);
        let count = |s: &OpStream, f: fn(&Op) -> bool| s.ops.iter().filter(|op| f(op)).count();

        let ingest = generate(WorkloadKind::IngestDurable, &data, 1, "timed", 1, 2, 200);
        assert_eq!(ingest.ops.len(), 2_000);
        assert_eq!(count(&ingest, |op| matches!(op, Op::PutBatch(_))), 200);
        assert_eq!(count(&ingest, |op| matches!(op, Op::Put(_))), 900);
        assert_eq!(count(&ingest, |op| matches!(op, Op::Append)), 900);
        assert!(matches!(ingest.ops[9], Op::PutBatch(_)));
        for op in &ingest.ops {
            if let Op::Put(key) = op {
                assert_eq!(key % 2, 1, "thread 1 wrote a key of thread 0");
            }
        }
        assert!(ingest.side.iter().all(|key| key % 2 == 1));
        for batch in ingest.side.chunks(BATCH_WRITES / 2) {
            let mut keys = batch.to_vec();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), BATCH_WRITES / 2, "batch repeats a key");
        }

        let point = generate(WorkloadKind::PointVerified, &data, 1, "timed", 0, 2, 200);
        assert_eq!(count(&point, |op| matches!(op, Op::Get(_))), 1_600);
        assert_eq!(count(&point, |op| matches!(op, Op::GetMulti(_))), 200);
        assert_eq!(count(&point, |op| matches!(op, Op::GetAbsent(_))), 200);

        let scan = generate(WorkloadKind::ScanVerified, &data, 1, "timed", 0, 2, 200);
        assert!(scan
            .ops
            .iter()
            .all(|op| matches!(op, Op::Range(s) if s + scan.range_len <= 2_000)));

        let served = generate(WorkloadKind::ServedMixed, &data, 1, "timed", 0, 2, 100);
        assert_eq!(count(&served, |op| matches!(op, Op::Get(_))), 1_400);
        assert_eq!(count(&served, |op| matches!(op, Op::GetMulti(_))), 200);
        assert_eq!(count(&served, |op| matches!(op, Op::Range(_))), 100);
        assert_eq!(count(&served, |op| matches!(op, Op::Put(_))), 300);
    }

    #[test]
    fn values_identify_their_key_and_version() {
        let data = Dataset::new(5, 10);
        let value = data.value(3, 9);
        assert_eq!(value.len(), VALUE_LEN);
        assert_eq!(data.version_of(3, &value), Some(9));
        assert_eq!(data.version_of(4, &value), None);
        let mut bent = value.clone();
        bent[100] ^= 1;
        assert_eq!(data.version_of(3, &bent), None);
        assert!(data.absent_key(3) > data.keys[3] && data.absent_key(3) < data.keys[4]);
    }
}
