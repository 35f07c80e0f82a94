//! Sample statistics, the answer hash and the process's memory peak.

/// Timings of one kind, in the unit they were recorded in.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `q` in (0, 1]; NaN without samples.
    /// Failed operations are pushed as `f64::INFINITY`, so they land in
    /// the tail and count as misses.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_unstable_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

/// FNV-1a over 64-bit words: answers are compared by the hash of their
/// exact `f64` bit patterns, so a stored oracle is 8 bytes per request.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a dense table: its shape, then every cell's bits.
pub fn dense_hash(n: usize, dim: usize, data: &[f64]) -> u64 {
    fnv64([n as u64, dim as u64].into_iter().chain(data.iter().map(|x| x.to_bits())))
}

/// Hash of a sparse table: its shape, its coordinates, then its values.
pub fn sparse_hash(n: usize, dim: usize, coords: &[u64], values: &[f64]) -> u64 {
    fnv64(
        [n as u64, dim as u64, coords.len() as u64]
            .into_iter()
            .chain(coords.iter().copied())
            .chain(values.iter().map(|x| x.to_bits())),
    )
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        s.push(f64::INFINITY);
        assert_eq!(s.quantile(1.0), f64::INFINITY, "failures land in the tail");
    }

    #[test]
    fn hashes_see_every_bit() {
        assert_ne!(dense_hash(2, 1, &[0.0, 1.0]), dense_hash(2, 1, &[-0.0, 1.0]));
        assert_ne!(dense_hash(2, 1, &[1.0, 0.0]), dense_hash(1, 2, &[1.0, 0.0]));
        assert_ne!(sparse_hash(4, 1, &[1], &[2.0]), sparse_hash(4, 1, &[2], &[2.0]));
    }
}
