//! Order statistics over latency samples.

use std::time::Duration;

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-quantile (0 < p ≤ 1) by nearest rank: the smallest sample
/// with at least `p` of the samples at or below it. `NaN` for no
/// samples, so a workload that measured nothing cannot report a time.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Fewest blocks a run's samples are cut into, in order of arrival.
pub const BLOCKS: usize = 10;
/// Fewest samples a block holds when the run has enough for [`BLOCKS`]
/// such blocks: a block median over fewer is not worth ranking.
pub const MIN_BLOCK: usize = 16;

/// Consecutive blocks of equal size: as many as hold [`MIN_BLOCK`]
/// samples each, at least [`BLOCKS`], each a whole number of `cycle`s (the
/// length of the op mix that repeats, 1 when every op is alike).
fn blocks<T>(samples: &[T], cycle: usize) -> std::slice::Chunks<'_, T> {
    let count = (samples.len() / MIN_BLOCK).max(BLOCKS);
    let size = samples.len().div_ceil(count).max(1);
    samples.chunks(size.next_multiple_of(cycle))
}

/// The median over the quiet part of a run: the run is cut into
/// consecutive [`blocks`], the median is taken per block, and the lower
/// decile of the block medians is reported.
///
/// The baseline host is a shared VM with two speeds: for spells of a few
/// operations up to minutes everything that touches memory runs 25–45 %
/// slower, then recovers (a single-threaded loop over 16 MB shows the same
/// spells, so they are the host's and not the system's). A plain median
/// over a run flips between the two speeds with the share of the run each
/// took. Slow spells only ever add time, so the quietest blocks are the
/// ones that show the system; short blocks keep a spell from spoiling
/// more than its own length, and the lower decile stays with the
/// undisturbed speed as long as a tenth of the blocks ran undisturbed.
pub fn quiet_median(samples: &[f64]) -> f64 {
    let per_block: Vec<f64> = blocks(samples, 1).map(median).collect();
    percentile(&per_block, 0.1)
}

/// Work per second over the quiet part of a run: `ops` holds each op's
/// `(work, seconds)` and repeats its mix every `cycle` ops; the rate is
/// taken per block and the upper decile of the block rates is reported
/// (see [`quiet_median`]).
pub fn quiet_rate(ops: &[(f64, f64)], cycle: usize) -> f64 {
    // Negated, so that the lower decile is the decile of the fastest blocks.
    let per_block: Vec<f64> = blocks(ops, cycle)
        .map(|b| -b.iter().map(|o| o.0).sum::<f64>() / b.iter().map(|o| o.1).sum::<f64>())
        .collect();
    -percentile(&per_block, 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_on_known_samples() {
        let odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&odd), 3.0);
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&even), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(median(&[]).is_nan() && percentile(&[], 0.5).is_nan());
        assert_eq!(ms(Duration::from_micros(1500)), 1.5);
    }

    #[test]
    fn quiet_statistics_ignore_a_disturbed_majority_of_blocks() {
        // 100 samples in ten blocks: two undisturbed (10 ms), the other
        // eight 30 % slower.
        let samples: Vec<f64> = (0..100).map(|i| if i < 20 { 10.0 } else { 13.0 }).collect();
        assert_eq!(median(&samples), 13.0);
        assert_eq!(quiet_median(&samples), 10.0);
        let ops: Vec<(f64, f64)> = samples.iter().map(|ms| (1.0, ms / 1e3)).collect();
        assert!((quiet_rate(&ops, 1) - 100.0).abs() < 1e-9);
        // Fewer samples than blocks: every sample is its own block.
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0]), 1.0);
        assert!(quiet_median(&[]).is_nan());
    }

    #[test]
    fn long_runs_get_short_blocks_and_blocks_hold_whole_cycles() {
        let sizes = |len: usize, cycle: usize| -> Vec<usize> {
            blocks(&vec![0u8; len], cycle).map(<[u8]>::len).collect()
        };
        // 2800 samples: 175 blocks of MIN_BLOCK, so a spell of 40 slow ops
        // spoils four blocks, not a tenth of the run.
        assert_eq!(sizes(2800, 1), vec![16; 175]);
        // 180 samples: eleven blocks, none tiny.
        assert_eq!(sizes(180, 1), [vec![17; 10], vec![10]].concat());
        // 210 ops that repeat every 21: ten blocks of one cycle each.
        assert_eq!(sizes(210, 21), vec![21; 10]);
        // A spell covering 85 % of a long run leaves the estimate alone.
        let samples: Vec<f64> = (0..2800)
            .map(|i| if i % 400 < 60 { 6.0 } else { 8.7 })
            .collect();
        assert_eq!(quiet_median(&samples), 6.0);
    }
}
