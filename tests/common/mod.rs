//! Shared oracle for the determinism and parallel-parity suites.

use nicbar::core::{Barrier, FlightData};
use nicbar::elan::ElanParams;
use nicbar::gm::{CollFeatures, GmParams};

/// Byte-exact projection of everything a run observes: trace records in
/// emission order, span summaries in completion order, histograms,
/// counters and final latency statistics, causal packet records and
/// occupancy-ledger records, each with its store's drop count.
pub fn witness(f: &FlightData) -> String {
    format!(
        "substrate={}\nrecords={:?}\ntrace_dropped={}\nspans={:?}\nspans_dropped={}\norphaned={}\nhists={:?}\nstats={:?}\npackets={:?}\npackets_dropped={}\nledger={:?}\nledger_dropped={}\n",
        f.substrate, f.records, f.trace_dropped, f.spans, f.spans_dropped, f.orphaned, f.hists, f.stats, f.packets, f.packets_dropped, f.ledger, f.ledger_dropped
    )
}

/// Byte offset of the first difference between two witnesses.
pub fn first_divergence(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

/// The paper's NIC barrier over GM on the LANai-XP cluster.
pub fn gm_nic() -> Barrier {
    Barrier::GmNic {
        params: GmParams::lanai_xp(),
        features: CollFeatures::paper(),
    }
}

/// The chained-RDMA NIC barrier over Quadrics Elan3.
pub fn elan_nic() -> Barrier {
    Barrier::ElanNic {
        params: ElanParams::elan3(),
    }
}
