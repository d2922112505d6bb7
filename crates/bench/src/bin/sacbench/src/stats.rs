//! Order statistics, the FNV digest, and the bench's own seeded generator.

use std::time::Instant;

/// Index of the `p`-th percentile (nearest rank) in a sorted sample of `len`.
fn rank_index(len: usize, p: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Sorts a nanosecond sample in place and returns its `p`-th percentile.
pub fn percentile_ns(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    samples[rank_index(samples.len(), p)] as f64
}

pub fn median_ns(samples: &mut [u64]) -> f64 {
    percentile_ns(samples, 50.0)
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), 50.0)]
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it — a tail estimate resting on fewer is noise.
/// Falls back to the median for tiny samples.
pub fn tail_percentile(samples: usize) -> f64 {
    // Per mille, so the rank is exact integer arithmetic.
    const CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];
    CANDIDATES
        .into_iter()
        .find(|per_mille| {
            let rank = (samples * per_mille).div_ceil(1000);
            samples.saturating_sub(rank) >= 10
        })
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method): the three cut points the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile distance as a share of the median; `None` below two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Wall time of `f` in nanoseconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = Instant::now();
    let result = f();
    (elapsed_ns(start), result)
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall times of `reps` calls of `f` (after one untimed call).
pub fn sample_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<u64> {
    std::hint::black_box(f());
    (0..reps.max(1))
        .map(|_| {
            let (ns, result) = timed(&mut f);
            std::hint::black_box(result);
            ns
        })
        .collect()
}

/// Median wall time of `reps` calls of `f` (after one untimed call).
pub fn p50_ns_of<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    median_ns(&mut sample_ns(reps, f))
}

/// FNV-1a, 64 bit: the digest results carry so two runs can be diffed.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn absorb(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a bag of text rows, independent of the order they arrive in.
pub fn digest_rows(mut rows: Vec<String>) -> String {
    rows.sort_unstable();
    let mut fnv = Fnv::default();
    for row in &rows {
        fnv.absorb(row.as_bytes());
        fnv.absorb(b"\n");
    }
    fnv.hex()
}

/// SplitMix64: the bench's own generator for choices `sac::gen` does not
/// make (shuffles, suite order).  The engine never sees it.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut hundred, 50.0), 50.0);
        assert_eq!(percentile_ns(&mut hundred, 95.0), 95.0);
        assert_eq!(percentile_ns(&mut hundred, 100.0), 100.0);
        assert_eq!(percentile_ns(&mut [7], 95.0), 7.0);
        assert_eq!(median_ns(&mut [30, 10, 20]), 20.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn digests_ignore_arrival_order_but_not_content() {
        let a = digest_rows(vec!["x,y".into(), "a,b".into()]);
        let b = digest_rows(vec!["a,b".into(), "x,y".into()]);
        let c = digest_rows(vec!["a,b".into(), "x,z".into()]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let mut one: Vec<u32> = (0..50).collect();
        let mut two = one.clone();
        SplitMix(7).shuffle(&mut one);
        SplitMix(7).shuffle(&mut two);
        assert_eq!(one, two);
        let mut three: Vec<u32> = (0..50).collect();
        SplitMix(8).shuffle(&mut three);
        assert_ne!(one, three);
        one.sort_unstable();
        assert_eq!(one, (0..50).collect::<Vec<u32>>());
    }
}
