//! Interconnect timing parameters and collective cost models.
//!
//! Standard LogP-flavoured costs: a point-to-point message of `n` bytes
//! takes `alpha + n/beta`; a collective over `p` ranks costs
//! `ceil(log2 p) · alpha` plus a size term depending on its shape. Values
//! default to a modest FDR-class cluster network (Platform A is a small
//! Ethernet/IB cluster; only relative magnitudes matter for the figures).

use unimem_sim::{Bandwidth, Bytes, VDur};

/// Collective operation shapes with distinct cost structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    Barrier,
    /// Reduce + broadcast of `n` bytes.
    Allreduce,
    Bcast,
    Reduce,
    /// Personalized all-to-all exchange of `n` bytes per pair.
    Alltoall,
}

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Per-message latency.
    pub alpha: VDur,
    /// Link bandwidth.
    pub beta: Bandwidth,
    /// Software overhead charged on the sender/receiver per call.
    pub overhead: VDur,
}

impl Default for NetParams {
    fn default() -> NetParams {
        NetParams {
            alpha: VDur::from_micros(2.0),
            beta: Bandwidth::gb_per_s(5.0),
            overhead: VDur::from_nanos(400.0),
        }
    }
}

impl NetParams {
    /// Wire time of a point-to-point message.
    pub fn p2p_time(&self, bytes: Bytes) -> VDur {
        self.alpha + bytes / self.beta
    }

    /// Cost of a collective over `p` ranks moving `bytes` per rank.
    pub fn collective_time(&self, kind: CollectiveKind, p: usize, bytes: Bytes) -> VDur {
        let log_p = (p.max(1) as f64).log2().ceil().max(1.0);
        let latency = self.alpha * log_p;
        match kind {
            CollectiveKind::Barrier => latency,
            CollectiveKind::Allreduce => latency * 2.0 + (bytes / self.beta) * 2.0,
            CollectiveKind::Bcast | CollectiveKind::Reduce => latency + bytes / self.beta,
            CollectiveKind::Alltoall => {
                // p-1 pairwise exchanges of `bytes` each.
                latency + (bytes / self.beta) * ((p.saturating_sub(1)) as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_cost_has_latency_and_bandwidth_terms() {
        let n = NetParams::default();
        let small = n.p2p_time(Bytes(8));
        let big = n.p2p_time(Bytes::mib(10));
        assert!(small.secs() >= n.alpha.secs());
        // 10 MiB at 5 GB/s ≈ 2.1 ms ≫ alpha.
        assert!(big.secs() > 2e-3);
    }

    #[test]
    fn collective_scales_logarithmically() {
        let n = NetParams::default();
        let b4 = n.collective_time(CollectiveKind::Barrier, 4, Bytes::ZERO);
        let b16 = n.collective_time(CollectiveKind::Barrier, 16, Bytes::ZERO);
        assert!((b16.secs() / b4.secs() - 2.0).abs() < 1e-9); // log 16 / log 4
    }

    #[test]
    fn allreduce_costs_more_than_bcast() {
        let n = NetParams::default();
        let bytes = Bytes::kib(64);
        assert!(
            n.collective_time(CollectiveKind::Allreduce, 8, bytes)
                > n.collective_time(CollectiveKind::Bcast, 8, bytes)
        );
    }

    #[test]
    fn alltoall_grows_with_ranks() {
        let n = NetParams::default();
        let bytes = Bytes::mib(1);
        let a4 = n.collective_time(CollectiveKind::Alltoall, 4, bytes);
        let a8 = n.collective_time(CollectiveKind::Alltoall, 8, bytes);
        assert!(a8 > a4);
    }

    #[test]
    fn single_rank_collective_is_cheap_but_positive() {
        let n = NetParams::default();
        let t = n.collective_time(CollectiveKind::Barrier, 1, Bytes::ZERO);
        assert!(t > VDur::ZERO);
    }
}
