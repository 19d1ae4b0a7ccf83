//! Stream-Length-Histogram studies (Figures 2, 3, 12, 16).
//!
//! These figures characterize the DRAM read stream itself, so they don't
//! need the full timing simulation: this module replays a workload through
//! the cache hierarchy (to obtain the DRAM read stream, exactly what the
//! memory controller sees) and feeds it to both the hardware ASD detector
//! (finite 8-slot Stream Filter) and the unbounded oracle decomposition.

use crate::error::SimError;
use asd_cache::{Hierarchy, HitLevel};
use asd_core::{AsdConfig, AsdDetector, PrefetchCandidate, Slh, MAX_STREAM_LEN};
use asd_cpu::CoreConfig;
use asd_trace::{AccessKind, MemAccess, OracleSlh, TraceGenerator, WorkloadProfile};

/// Per-epoch pair of histograms: the detector's finite-filter
/// approximation and the oracle's exact decomposition of the same reads.
#[derive(Debug, Clone)]
pub struct EpochSlh {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// The 8-slot Stream Filter approximation (what the hardware computes).
    pub approx: Slh,
    /// Ground truth from unbounded tracking.
    pub oracle: Slh,
}

/// Replay `accesses` of `profile` through the cache hierarchy and collect
/// one [`EpochSlh`] per completed ASD epoch of the resulting DRAM read
/// stream.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] if `asd` fails validation.
pub fn epoch_histograms(
    profile: &WorkloadProfile,
    accesses: usize,
    asd: &AsdConfig,
    seed: u64,
) -> Result<Vec<EpochSlh>, SimError> {
    epoch_histograms_from(TraceGenerator::new(profile.clone(), seed).take(accesses), asd)
}

/// [`epoch_histograms`] over any access stream — the entry point for
/// file-backed [`TraceSource`](crate::TraceSource)s: replaying a recorded
/// trace through this function is bit-identical to regenerating it,
/// because both paths feed the same records through the same hierarchy.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] if `asd` fails validation.
pub fn epoch_histograms_from<I: Iterator<Item = MemAccess>>(
    stream: I,
    asd: &AsdConfig,
) -> Result<Vec<EpochSlh>, SimError> {
    let core_cfg = CoreConfig::default();
    let mut hierarchy = Hierarchy::new(core_cfg.hierarchy);
    let mut det = AsdDetector::new(asd.clone())?;
    // Oracle stream window in *reads*, matched to the detector's
    // cycle-denominated lifetime at the ~100-cycle DRAM read spacing this
    // replay produces.
    let mut oracle = OracleSlh::new((asd.filter.extension_lifetime / 100).max(8));
    let mut out: Vec<EpochSlh> = Vec::new();
    let mut scratch: Vec<PrefetchCandidate> = Vec::new();
    // Dirty L3 victims: this replay models no DRAM writes, so each
    // access's are discarded.
    let mut writebacks: Vec<u64> = Vec::new();
    let mut now = 0u64;
    let mut reads_in_epoch = 0u64;
    let mut epochs_seen = 0u64;

    for access in stream {
        now += u64::from(access.gap) + 2;
        let line = access.line();
        writebacks.clear();
        let outcome = hierarchy.access(line, access.kind == AccessKind::Write, &mut writebacks);
        if outcome.level == HitLevel::Memory {
            hierarchy.fill_from_memory(line, access.kind == AccessKind::Write, &mut writebacks);
            // This is a DRAM Read command: both trackers observe it.
            now += 80; // approximate DRAM service spacing
            scratch.clear();
            det.on_read(line, now, &mut scratch);
            oracle.on_read(line);
            reads_in_epoch += 1;
            if reads_in_epoch == asd.epoch_reads {
                reads_in_epoch = 0;
                let approx = *det.last_epoch_slh();
                let truth = oracle.flush();
                out.push(EpochSlh { epoch: epochs_seen, approx, oracle: truth });
                epochs_seen += 1;
            }
        }
    }
    Ok(out)
}

/// Aggregate stream-length shares for Figure 12: the fraction of *streams*
/// (not reads) of each length 1..=5, plus the remainder, from the oracle
/// decomposition of a profile's DRAM read stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShares {
    /// `shares[i]` = fraction of streams with length `i + 1`, for
    /// `i < 5`.
    pub shares: [f64; 5],
    /// Fraction of streams longer than 5.
    pub longer: f64,
}

impl StreamShares {
    /// Share of streams with length 2..=5 (the paper quotes 37–62% for the
    /// commercial benchmarks).
    pub fn len2_to_5(&self) -> f64 {
        self.shares[1..].iter().sum()
    }
}

/// Compute [`StreamShares`] by merging all epoch oracle histograms of a
/// profile.
///
/// # Errors
///
/// [`SimError::NoEpochs`] when `accesses` is too small to complete a
/// single ASD epoch.
pub fn stream_shares(
    profile: &WorkloadProfile,
    accesses: usize,
    seed: u64,
) -> Result<StreamShares, SimError> {
    stream_shares_from(
        TraceGenerator::new(profile.clone(), seed).take(accesses),
        &profile.name,
        accesses as u64,
    )
}

/// [`stream_shares`] over any access stream (`benchmark` and `accesses`
/// label the [`SimError::NoEpochs`] error when the stream is too short).
///
/// # Errors
///
/// [`SimError::NoEpochs`] when the stream completes no ASD epoch.
pub fn stream_shares_from<I: Iterator<Item = MemAccess>>(
    stream: I,
    benchmark: &str,
    accesses: u64,
) -> Result<StreamShares, SimError> {
    let asd = AsdConfig::default();
    let epochs = epoch_histograms_from(stream, &asd)?;
    if epochs.is_empty() {
        return Err(SimError::NoEpochs { benchmark: benchmark.to_string(), accesses });
    }
    let mut merged = Slh::new();
    for e in &epochs {
        merged += &e.oracle;
    }
    Ok(slh_to_stream_shares(&merged))
}

/// Convert a read-weighted SLH into per-stream shares (bar `i` holds
/// `i x streams_i` reads, so divide by the length).
pub fn slh_to_stream_shares(slh: &Slh) -> StreamShares {
    let mut streams = [0.0f64; MAX_STREAM_LEN];
    for (idx, s) in streams.iter_mut().enumerate() {
        let len = idx + 1;
        *s = slh.reads_at(len) as f64 / len as f64;
    }
    let total: f64 = streams.iter().sum();
    let mut shares = [0.0; 5];
    if total > 0.0 {
        for i in 0..5 {
            shares[i] = streams[i] / total;
        }
    }
    // asd-lint: allow(D011) -- slice iteration: index order is fixed
    let longer = if total > 0.0 { streams[5..].iter().sum::<f64>() / total } else { 0.0 };
    StreamShares { shares, longer }
}

/// Mean L1 distance between approximate and oracle histograms across
/// epochs — the quantitative version of Figure 16's "closely matches".
pub fn mean_l1_distance(epochs: &[EpochSlh]) -> f64 {
    if epochs.is_empty() {
        return 0.0;
    }
    // asd-lint: allow(D011) -- slice iteration: epoch order is fixed
    epochs.iter().map(|e| e.approx.l1_distance(&e.oracle)).sum::<f64>() / epochs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_trace::suites;

    #[test]
    fn gemsfdtd_epochs_vary() {
        // Figure 3: GemsFDTD's SLH varies widely across epochs.
        let profile = suites::by_name("GemsFDTD").unwrap();
        let asd = AsdConfig { epoch_reads: 1000, ..AsdConfig::default() };
        let epochs = epoch_histograms(&profile, 120_000, &asd, 7).unwrap();
        assert!(epochs.len() >= 3, "need several epochs, got {}", epochs.len());
        // At least one pair of epochs must differ substantially.
        let max_d =
            epochs.windows(2).map(|w| w[0].oracle.l1_distance(&w[1].oracle)).fold(0.0f64, f64::max);
        assert!(max_d > 0.3, "GemsFDTD phases must show: max distance {max_d}");
    }

    #[test]
    fn approximation_tracks_oracle() {
        // Figure 16: the 8-slot filter's histogram closely matches truth.
        let profile = suites::by_name("milc").unwrap();
        let asd = AsdConfig { epoch_reads: 1000, ..AsdConfig::default() };
        let epochs = epoch_histograms(&profile, 60_000, &asd, 11).unwrap();
        assert!(!epochs.is_empty());
        let d = mean_l1_distance(&epochs);
        // The finite filter under-tracks interleaved streams somewhat
        // (untracked reads become singles) — the paper's Figure 16 shows
        // the same qualitative bias; bounded, not zero.
        assert!(d < 0.5, "approximation drifted: mean L1 {d}");
    }

    #[test]
    fn commercial_shares_short() {
        // Figure 12: commercial benchmarks are dominated by short streams.
        let profile = suites::by_name("notesbench").unwrap();
        let s = stream_shares(&profile, 40_000, 3).unwrap();
        assert!(s.shares[0] + s.len2_to_5() > 0.85, "short streams dominate");
        assert!(s.len2_to_5() > 0.35, "len 2-5 share {}", s.len2_to_5());
    }

    #[test]
    fn shares_sum_to_one() {
        let profile = suites::by_name("tpcc").unwrap();
        let s = stream_shares(&profile, 30_000, 5).unwrap();
        let total: f64 = s.shares.iter().sum::<f64>() + s.longer;
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }
}
