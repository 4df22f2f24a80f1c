//! Seeded input generation: the RNG, the 224-spec model zoo, the zipf
//! sampler, the per-workload request streams, and the FNV-64 digest that
//! proves two runs saw the same inputs.
//!
//! Every draw of a run comes from [`Rng`] streams forked off `--seed`, so the
//! program under test receives only generated request lines and equal seeds
//! give equal lines.

use qsync_api::{ClusterDelta, DeltaRequest, ModelSpec, PlanRequest};
use qsync_cluster::topology::ClusterSpec;

/// SplitMix64. Written out here rather than taken from `vendor/rand` so the
/// request streams (and `input_digest`) cannot move when a vendored stand-in
/// does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one consumer (a connection, a shuffle).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut parent = Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(parent.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64 over the generated request lines (newline-separated).
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Batch sizes of the zoo.
pub const ZOO_BATCHES: std::ops::RangeInclusive<usize> = 1..=8;

/// The zoo: 7 `ModelSpec` families x batch 1..=8 x 4 sizes = 224 specs, in a
/// fixed order (family-major). The sizes keep every DAG small enough that a
/// cold plan stays in the low milliseconds.
pub fn zoo() -> Vec<ModelSpec> {
    let mut specs = Vec::with_capacity(224);
    for family in 0..7 {
        for batch in ZOO_BATCHES {
            for size in 0..4 {
                specs.push(match family {
                    0 => {
                        let in_features = [16, 32, 64, 128][size];
                        ModelSpec::SmallMlp {
                            batch,
                            in_features,
                            hidden: 2 * in_features,
                            classes: 8,
                        }
                    }
                    1 => ModelSpec::SmallCnn {
                        batch,
                        image: [8, 16, 24, 32][size],
                        classes: 10,
                    },
                    2 => ModelSpec::Resnet50 {
                        batch,
                        image: [32, 64, 96, 128][size],
                    },
                    3 => ModelSpec::Vgg16 {
                        batch,
                        image: [32, 64, 96, 128][size],
                    },
                    4 => ModelSpec::Vgg16Bn {
                        batch,
                        image: [32, 64, 96, 128][size],
                    },
                    5 => ModelSpec::BertBase {
                        batch,
                        seq: [8, 16, 32, 64][size],
                    },
                    _ => ModelSpec::RobertaBase {
                        batch,
                        seq: [8, 16, 32, 64][size],
                    },
                });
            }
        }
    }
    specs
}

/// Zipf over ranks `0..n` with exponent `s`, sampled by inverting the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Rounding must not leave a gap a draw of 0.999.. could fall into.
        *cdf.last_mut().expect("zipf over at least one rank") = 1.0;
        Zipf { cdf }
    }

    /// The rank whose CDF interval holds `u` (`u` in `[0, 1)`).
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Resident keys of `hit_zipf` and of `elastic_churn`'s read connection.
pub const RESIDENT_KEYS: usize = 64;

/// The cluster every resident key is planned against. No delta of any
/// workload names it, so the keys stay resident for the whole run.
pub fn resident_cluster() -> ClusterSpec {
    ClusterSpec::cluster_a(2, 2)
}

/// Zoo family (by its index in [`zoo`]) at zipf ranks `r % 7 == 0, 1, ..`:
/// vgg16bn, bert, small_cnn, resnet50, small_mlp, vgg16, roberta — heavy and
/// light DAGs alternate down the ranks.
const RANK_FAMILY: [usize; 7] = [4, 5, 1, 2, 0, 3, 6];

/// The resident working set, by zipf rank. Rank `r` holds a spec of family
/// `RANK_FAMILY[r % 7]`, so the seven hottest keys are one of each family;
/// *which* of the family's 32 batch/size variants sits at each rank is a
/// seeded shuffle. The family layout is fixed because
/// a hit costs what its family's DAG costs to build, fingerprint and
/// serialize: shuffling families across ranks moved the median hit latency
/// by half between seeds, which measures the seed, not the server.
pub fn resident_set(seed: &Rng) -> Vec<PlanRequest> {
    let zoo = zoo();
    let per_family = zoo.len() / 7;
    let mut rng = seed.fork(0x5E7);
    let variants: Vec<Vec<ModelSpec>> = zoo
        .chunks(per_family)
        .map(|family| {
            let mut family = family.to_vec();
            rng.shuffle(&mut family);
            family
        })
        .collect();
    let cluster = resident_cluster();
    (0..RESIDENT_KEYS)
        .map(|rank| {
            PlanRequest::new(
                0,
                variants[RANK_FAMILY[rank % 7]][rank / 7].clone(),
                cluster.clone(),
            )
        })
        .collect()
}

/// Ids are unique per connection and rise by one per command.
fn stream_id_base(conn: usize) -> u64 {
    (conn as u64 + 1) * 1_000_000_000
}

/// `hit_zipf`: zipf(s=1.0) draws over the resident set.
pub struct HitStream {
    rng: Rng,
    zipf: Zipf,
    resident: Vec<PlanRequest>,
    next_id: u64,
}

impl HitStream {
    pub fn new(seed: &Rng, conn: usize, resident: &[PlanRequest]) -> Self {
        HitStream {
            rng: seed.fork(0xC0 + conn as u64),
            zipf: Zipf::new(resident.len(), 1.0),
            resident: resident.to_vec(),
            next_id: stream_id_base(conn),
        }
    }

    /// The next request and its rank in the resident set.
    pub fn next_ranked(&mut self) -> (usize, PlanRequest) {
        let rank = self.zipf.rank(self.rng.unit());
        let mut request = self.resident[rank].clone();
        self.next_id += 1;
        request.id = self.next_id;
        (rank, request)
    }
}

/// `cold_sweep`: a zoo spec on `cluster_b(2,2,m)`, `m` uniform in
/// `[0.2, 0.9)`. 53 random bits of `m` make every request a fresh key. Specs
/// are dealt from a seeded shuffle of the zoo, reshuffled when it runs out:
/// uniform over the zoo, and any 224 consecutive requests of a connection
/// hold every spec once, so the mix of cheap and dear plans in a run does not
/// depend on the seed.
pub struct ColdStream {
    rng: Rng,
    deck: Vec<ModelSpec>,
    dealt: usize,
    next_id: u64,
}

impl ColdStream {
    pub fn new(seed: &Rng, conn: usize) -> Self {
        let deck = zoo();
        ColdStream {
            rng: seed.fork(0xC0 + conn as u64),
            dealt: deck.len(),
            deck,
            next_id: stream_id_base(conn),
        }
    }

    pub fn next_request(&mut self) -> PlanRequest {
        if self.dealt == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.dealt = 0;
        }
        let model = self.deck[self.dealt].clone();
        self.dealt += 1;
        let memory = 0.2 + 0.7 * self.rng.unit();
        self.next_id += 1;
        PlanRequest::new(self.next_id, model, ClusterSpec::cluster_b(2, 2, memory))
    }
}

/// Plans per churn cycle, and deltas that follow them.
pub const CHURN_PLANS: usize = 4;
pub const CHURN_DELTAS: usize = 4;

/// One `elastic_churn` cycle of the write connection: plans for a vgg16bn, a
/// vgg16, a resnet50 and a bert on a fresh `cluster_b(2,2,m)`, then four `Degraded` deltas down the shape chain, each
/// naming the shape the previous one produced.
pub struct ChurnCycle {
    pub plans: Vec<PlanRequest>,
    pub deltas: Vec<DeltaRequest>,
    /// `shapes[i]` is the cluster after delta `i`.
    pub shapes: Vec<ClusterSpec>,
}

pub struct ChurnStream {
    rng: Rng,
    zoo: Vec<ModelSpec>,
    per_family: usize,
    starts: [usize; CHURN_PLANS],
    cycles: usize,
    next_id: u64,
}

impl ChurnStream {
    pub fn new(seed: &Rng, conn: usize) -> Self {
        let zoo = zoo();
        let per_family = zoo.len() / 7;
        let mut rng = seed.fork(0xC0 + conn as u64);
        let starts = [0; CHURN_PLANS].map(|_| rng.below(per_family));
        ChurnStream {
            rng,
            zoo,
            per_family,
            starts,
            cycles: 0,
            next_id: stream_id_base(conn),
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn next_cycle(&mut self) -> ChurnCycle {
        let memory = 0.3 + 0.6 * self.rng.unit();
        let base = ClusterSpec::cluster_b(2, 2, memory);
        // vgg16bn, vgg16, resnet50, bert: the families are fixed (they set
        // what a cycle costs); each walks its 32 batch/size variants from a
        // seeded start, so any 32 consecutive cycles hold every variant once.
        let plans = [4, 3, 2, 5]
            .into_iter()
            .zip(self.starts)
            .map(|(family, start)| {
                let variant = (start + self.cycles) % self.per_family;
                let model = self.zoo[family * self.per_family + variant].clone();
                PlanRequest::new(self.id(), model, base.clone())
            })
            .collect();
        self.cycles += 1;
        let rank = base.inference_ranks()[0];
        let mut deltas = Vec::with_capacity(CHURN_DELTAS);
        let mut shapes = Vec::with_capacity(CHURN_DELTAS);
        let mut current = base;
        for step in 1..=CHURN_DELTAS {
            let delta = ClusterDelta::Degraded {
                rank,
                memory_fraction: memory * (1.0 - 0.1 * step as f64),
                compute_fraction: 1.0 - 0.05 * step as f64,
            };
            let next = delta.apply(&current).expect("generated delta is in range");
            deltas.push(DeltaRequest::new(self.id(), current, delta));
            shapes.push(next.clone());
            current = next;
        }
        ChurnCycle {
            plans,
            deltas,
            shapes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_api::ServerCommand;

    #[test]
    fn zipf_cdf_sums_to_one_and_ranks_are_ordered() {
        let zipf = Zipf::new(64, 1.0);
        assert_eq!(zipf.cdf.len(), 64);
        assert_eq!(*zipf.cdf.last().unwrap(), 1.0);
        let mut previous_mass = f64::INFINITY;
        let mut previous_cdf = 0.0;
        for &c in &zipf.cdf {
            let mass = c - previous_cdf;
            assert!(
                mass > 0.0 && mass <= previous_mass + 1e-12,
                "rank masses must not rise"
            );
            previous_mass = mass;
            previous_cdf = c;
        }
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), 63);
        // Rank 0 of zipf(1.0) over 64 holds 1/H(64) of the mass.
        let harmonic: f64 = (1..=64).map(|k| 1.0 / k as f64).sum();
        assert!((zipf.cdf[0] - 1.0 / harmonic).abs() < 1e-12);
    }

    #[test]
    fn zoo_has_224_distinct_specs_that_validate() {
        let specs = zoo();
        assert_eq!(specs.len(), 224);
        for (i, a) in specs.iter().enumerate() {
            assert!(
                specs[i + 1..].iter().all(|b| a != b),
                "duplicate zoo spec {a:?}"
            );
            for cluster in [resident_cluster(), ClusterSpec::cluster_b(2, 2, 0.2)] {
                PlanRequest::new(1, a.clone(), cluster)
                    .validate()
                    .expect("zoo spec validates");
            }
        }
    }

    fn digest_of(seed: u64) -> String {
        let rng = Rng::new(seed);
        let resident = resident_set(&rng);
        let mut digest = Digest::new();
        let mut hits = HitStream::new(&rng, 0, &resident);
        let mut cold = ColdStream::new(&rng, 1);
        let mut churn = ChurnStream::new(&rng, 1);
        for _ in 0..50 {
            digest
                .line(&serde_json::to_string(&ServerCommand::Plan(hits.next_ranked().1)).unwrap());
            digest.line(&serde_json::to_string(&ServerCommand::Plan(cold.next_request())).unwrap());
        }
        let cycle = churn.next_cycle();
        for delta in cycle.deltas {
            digest.line(&serde_json::to_string(&ServerCommand::Delta(delta)).unwrap());
        }
        digest.hex()
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(digest_of(7), digest_of(7));
        assert_ne!(digest_of(7), digest_of(8));
    }

    #[test]
    fn streams_of_two_connections_differ_and_ids_do_not_collide() {
        let rng = Rng::new(3);
        let (mut a, mut b) = (ColdStream::new(&rng, 0), ColdStream::new(&rng, 1));
        let (ra, rb) = (a.next_request(), b.next_request());
        assert_ne!(ra.id, rb.id);
        assert_ne!(ra.cache_key(), rb.cache_key());
    }

    #[test]
    fn resident_set_puts_every_family_among_the_seven_hottest_keys() {
        let resident = resident_set(&Rng::new(11));
        assert_eq!(resident.len(), RESIDENT_KEYS);
        let mut head: Vec<&str> = resident[..7].iter().map(|r| r.model.family()).collect();
        head.sort_unstable();
        head.dedup();
        assert_eq!(head.len(), 7);
        let mut keys: Vec<String> = resident.iter().map(PlanRequest::cache_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), RESIDENT_KEYS, "resident keys must be distinct");
        assert_ne!(resident, resident_set(&Rng::new(12)));
    }

    #[test]
    fn churn_cycle_chains_shapes() {
        let cycle = ChurnStream::new(&Rng::new(5), 1).next_cycle();
        assert_eq!(cycle.plans.len(), CHURN_PLANS);
        assert_eq!(cycle.deltas.len(), CHURN_DELTAS);
        assert_eq!(cycle.deltas[0].cluster, cycle.plans[0].cluster);
        for i in 1..CHURN_DELTAS {
            assert_eq!(cycle.deltas[i].cluster, cycle.shapes[i - 1]);
            assert_ne!(
                cycle.shapes[i].fingerprint(),
                cycle.shapes[i - 1].fingerprint()
            );
        }
    }
}
