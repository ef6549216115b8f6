//! Seeded inputs. The harness owns its generator (SplitMix64 + a clustered
//! Gaussian mixture) so that a change to `tv-common::rng` or `tv-datagen`
//! cannot silently change the workload: the program under test only ever
//! sees the vectors, attributes and edges produced here.

/// Mixture components. Enough that a segment holds several clusters, few
/// enough that clusters have real near-neighbour structure.
const CLUSTERS: usize = 64;
/// Within-cluster standard deviation, relative to unit-variance centres.
const SPREAD: f64 = 0.35;
/// `Doc.bucket` takes values `0..BUCKETS`; `bucket < t` selects `t` percent.
pub const BUCKETS: u64 = 100;
/// Number of `Author` vertices; every `Doc` has exactly one author.
pub const AUTHORS: usize = 100;

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2^-40
    /// for every bound the harness uses.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Two independent standard normals (Box–Muller).
    pub fn next_gaussian_pair(&mut self) -> (f64, f64) {
        let u1 = 1.0 - self.next_f64(); // (0, 1]: ln is finite
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        (r * theta.cos(), r * theta.sin())
    }

    /// An independent stream seeded from this one.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Seed of the mixture's centres. The geometry is part of the workload, not
/// of the run: `--seed` draws the points, queries, attributes and the
/// writer's schedule from one fixed distribution, so that two seeds differ
/// by sampling noise and not by how hard their cluster layout is to search.
const GEOMETRY_SEED: u64 = 0x7167_6572_7665_6374;

/// A mixture of `CLUSTERS` isotropic Gaussians with unit-normal centres.
#[derive(Debug, Clone)]
pub struct Mixture {
    dim: usize,
    centres: Vec<f32>,
}

impl Mixture {
    pub fn new(dim: usize) -> Self {
        let mut centres = vec![0.0f32; CLUSTERS * dim];
        fill_gaussian(&mut SplitMix64::new(GEOMETRY_SEED), &mut centres, 1.0);
        Mixture { dim, centres }
    }

    /// Draw one point of component `cluster` into `out` (`out.len() == dim`).
    fn sample_from(&self, cluster: usize, rng: &mut SplitMix64, out: &mut [f32]) {
        fill_gaussian(rng, out, SPREAD);
        let centre = &self.centres[cluster * self.dim..(cluster + 1) * self.dim];
        for (o, &m) in out.iter_mut().zip(centre) {
            *o += m;
        }
    }

    /// `rows` points, row-major, every component drawn equally often (± 1)
    /// in a seeded order.
    fn sample_balanced(&self, rng: &mut SplitMix64, rows: usize) -> Vec<f32> {
        let mut cluster_of: Vec<usize> = (0..rows).map(|r| r % CLUSTERS).collect();
        rng.shuffle(&mut cluster_of);
        let mut out = vec![0.0f32; rows * self.dim];
        for (row, &c) in out.chunks_exact_mut(self.dim).zip(&cluster_of) {
            self.sample_from(c, rng, row);
        }
        out
    }

    /// One point of a uniformly chosen component (the writer's fresh vectors).
    pub fn sample(&self, rng: &mut SplitMix64) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        let c = rng.next_below(CLUSTERS as u64) as usize;
        self.sample_from(c, rng, &mut v);
        v
    }
}

fn fill_gaussian(rng: &mut SplitMix64, out: &mut [f32], sigma: f64) {
    let mut chunks = out.chunks_exact_mut(2);
    for pair in &mut chunks {
        let (a, b) = rng.next_gaussian_pair();
        pair[0] = (a * sigma) as f32;
        pair[1] = (b * sigma) as f32;
    }
    if let [last] = chunks.into_remainder() {
        *last = (rng.next_gaussian_pair().0 * sigma) as f32;
    }
}

/// Everything one run feeds the program, derived from `(seed, shape)` only.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub dim: usize,
    pub n: usize,
    /// `n × dim` base vectors, row-major.
    pub vectors: Vec<f32>,
    /// `queries × dim` query vectors, drawn from the same mixture.
    pub queries: Vec<f32>,
    /// `Doc.bucket` per base row, uniform in `0..BUCKETS`.
    pub buckets: Vec<u8>,
    /// Author index per base row; every author gets `n / AUTHORS` rows
    /// (± 1), assigned through a seeded shuffle.
    pub author_of: Vec<u16>,
    /// The mixture itself, for the writer's fresh vectors.
    pub mixture: Mixture,
    /// Stream the writer draws its schedule from.
    pub writer_rng: SplitMix64,
}

impl Inputs {
    pub fn generate(seed: u64, dim: usize, n: usize, queries: usize) -> Inputs {
        let mut root = SplitMix64::new(seed);
        let mut data_rng = root.fork();
        let mut query_rng = root.fork();
        let mut attr_rng = root.fork();
        let writer_rng = root.fork();

        let mixture = Mixture::new(dim);
        let vectors = mixture.sample_balanced(&mut data_rng, n);
        let qs = mixture.sample_balanced(&mut query_rng, queries);
        let buckets = (0..n).map(|_| attr_rng.next_below(BUCKETS) as u8).collect();
        let mut order: Vec<usize> = (0..n).collect();
        attr_rng.shuffle(&mut order);
        let mut author_of = vec![0u16; n];
        for (pos, &row) in order.iter().enumerate() {
            author_of[row] = (pos % AUTHORS) as u16;
        }
        Inputs {
            dim,
            n,
            vectors,
            queries: qs,
            buckets,
            author_of,
            mixture,
            writer_rng,
        }
    }

    pub fn vector(&self, row: usize) -> &[f32] {
        &self.vectors[row * self.dim..(row + 1) * self.dim]
    }

    pub fn query(&self, qi: usize) -> &[f32] {
        let q = qi % self.query_count();
        &self.queries[q * self.dim..(q + 1) * self.dim]
    }

    pub fn query_count(&self) -> usize {
        self.queries.len() / self.dim
    }

    /// FNV-1a over the exact bits of every generated input: equal seeds give
    /// byte-identical datasets, and the value is stamped into each result.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        for v in self.vectors.iter().chain(&self.queries) {
            h.write(&v.to_bits().to_le_bytes());
        }
        h.write(&self.buckets);
        for a in &self.author_of {
            h.write(&a.to_le_bytes());
        }
        h.0
    }
}

struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_differs() {
        let a = Inputs::generate(7, 16, 500, 40);
        let b = Inputs::generate(7, 16, 500, 40);
        let c = Inputs::generate(8, 16, 500, 40);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.author_of, b.author_of);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 from the reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn authors_are_balanced_and_buckets_in_range() {
        let inp = Inputs::generate(3, 8, 1000, 4);
        let mut per_author = [0usize; AUTHORS];
        for &a in &inp.author_of {
            per_author[a as usize] += 1;
        }
        assert!(per_author.iter().all(|&c| c == 10));
        assert!(inp.buckets.iter().all(|&b| u64::from(b) < BUCKETS));
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SplitMix64::new(11);
        let n = 40_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n / 2 {
            let (a, b) = r.next_gaussian_pair();
            s += a + b;
            s2 += a * a + b * b;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
