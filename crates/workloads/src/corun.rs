//! Co-run composer: pair/triple tenant mixes of the suite with staggered
//! phase clocks.
//!
//! A *mix* names which suite members run concurrently on one node, who
//! carries the priority weight, and how the tenants' main loops are
//! staggered in the global epoch timeline. The first member of every mix
//! is the **weighted-priority tenant** ([`PRIORITY_WEIGHT`]); the rest
//! are weight-1 best-effort tenants — that asymmetry is what the sweep's
//! tenant-QoS conformance check measures. Members after the first start
//! [`STAGGER_STRIDE`] epochs apart, so every co-run exercises arrival
//! (budget revoked from incumbents) and departure (budget returned)
//! rebalances, not just a static split.
//!
//! Mixes are parsed from `+`-separated suite names (`"CG+FT"`,
//! `"LU+SP+CG"`), with the same alias handling as the rest of the suite;
//! duplicate members are legal (a homogeneous `"CG+CG"` pair isolates
//! arbitration effects from workload asymmetry) and get `#k`-suffixed
//! tenant names.
//!
//! # Example — compose a mix and run it under the arbiter
//!
//! ```
//! use unimem::tenancy::{run_corun, CorunTenant};
//! use unimem_cache::CacheModel;
//! use unimem_hms::arbiter::ArbiterPolicy;
//! use unimem_hms::MachineConfig;
//! use unimem_sim::Bytes;
//! use unimem_workloads::{corun::CorunMix, Class};
//!
//! let mix = CorunMix::parse("CG+MG").unwrap();
//! let members = mix.instantiate(Class::S); // miniature inputs: milliseconds
//! let tenants: Vec<CorunTenant<'_>> = members
//!     .iter()
//!     .map(|(slot, w)| {
//!         CorunTenant::new(slot.tenant.clone(), w.as_ref())
//!             .weight(slot.weight)
//!             .start_epoch(slot.start_epoch)
//!     })
//!     .collect();
//! let machine = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(2));
//! let outcomes = run_corun(
//!     &tenants, &machine, &CacheModel::platform_a(), 1, ArbiterPolicy::Priority,
//! )
//! .unwrap();
//! assert_eq!(outcomes.len(), 2);
//! // No tenant beats its solo run, and leases never exceed the node.
//! assert!(outcomes.iter().all(|o| o.slowdown >= 0.98));
//! assert!(outcomes.iter().all(|o| o.lease_max() <= Bytes::mib(2)));
//! ```
//!
//! (The tenant-QoS property — the weighted tenant never degrades more
//! than its best-effort peers — is asserted at CLASS C scale by the
//! sweep's `tenant-qos` conformance check, where contention is real;
//! at CLASS S the arrays fit the LLC and every policy ties.)

use crate::classes::Class;
use crate::suite::{by_name, canonical_name};
use unimem::exec::Workload;

/// Priority weight of a mix's first member (the protected tenant).
pub const PRIORITY_WEIGHT: u32 = 4;

/// Epochs between consecutive members' main-loop starts.
pub const STAGGER_STRIDE: usize = 2;

/// One tenant slot of a mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorunMember {
    /// Canonical suite name ("CG", …, "Nek5000").
    pub workload: String,
    /// Unique tenant name within the mix ("CG", "CG#2", …).
    pub tenant: String,
    /// Arbitration priority weight (first member gets
    /// [`PRIORITY_WEIGHT`], the rest 1).
    pub weight: u32,
    /// Epoch at which this tenant's main loop starts.
    pub start_epoch: usize,
}

/// A named co-run composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorunMix {
    /// The tenant slots, in priority-then-arrival order.
    pub members: Vec<CorunMember>,
}

impl CorunMix {
    /// Parse a `+`-separated mix spec (`"CG+FT"`, `"nek+mg"`). Names
    /// canonicalize through the suite alias table; unknown names are
    /// errors. The first member gets the priority weight, later members
    /// stagger their starts.
    pub fn parse(spec: &str) -> Result<CorunMix, String> {
        let names: Vec<&str> = spec.split('+').map(str::trim).collect();
        if names.len() < 2 {
            return Err(format!(
                "co-run mix {spec:?} needs at least two '+'-separated members"
            ));
        }
        let mut members: Vec<CorunMember> = Vec::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            let canon = canonical_name(n)
                .ok_or_else(|| format!("unknown workload {n:?} in mix {spec:?}"))?;
            let dup = members.iter().filter(|m| m.workload == canon).count();
            let tenant = if dup == 0 {
                canon.to_string()
            } else {
                format!("{canon}#{}", dup + 1)
            };
            members.push(CorunMember {
                workload: canon.to_string(),
                tenant,
                weight: if i == 0 { PRIORITY_WEIGHT } else { 1 },
                start_epoch: i * STAGGER_STRIDE,
            });
        }
        Ok(CorunMix { members })
    }

    /// Canonical `+`-joined label ("CG+FT"), stable across aliases.
    pub fn label(&self) -> String {
        self.members
            .iter()
            .map(|m| m.workload.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Materialize the member workloads at `class`, paired with their
    /// slots (the slot order is the tenant order the arbiter serves).
    pub fn instantiate(&self, class: Class) -> Vec<(CorunMember, Box<dyn Workload>)> {
        self.members
            .iter()
            .map(|m| {
                let w = by_name(&m.workload, class).expect("canonical names resolve");
                (m.clone(), w)
            })
            .collect()
    }
}

/// The reduced co-run axis (tier-1 and the default CLI): one
/// heterogeneous pair whose members *both* demand more DRAM than a
/// fair share of the node — the arbitration policies actually diverge.
/// (CG is deliberately absent: its CLASS C footprint at 4 ranks fits
/// under half a node, so every policy would grant it identically.)
pub fn reduced_mixes() -> Vec<CorunMix> {
    parse_mixes(&["LU+MG"]).expect("built-in mixes parse")
}

/// The full co-run axis: the reduced pair, a drift-heavy pair (Nek5000's
/// shifting hot set under a moving lease), and a fully-contended triple.
pub fn standard_mixes() -> Vec<CorunMix> {
    parse_mixes(&["LU+MG", "Nek5000+SP", "FT+BT+MG"]).expect("built-in mixes parse")
}

/// Parse a list of mix specs, collapsing duplicates (first wins).
pub fn parse_mixes(specs: &[&str]) -> Result<Vec<CorunMix>, String> {
    let mixes = specs
        .iter()
        .map(|s| CorunMix::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(dedup_mixes(mixes))
}

/// Collapse duplicate mixes by label, first occurrence wins — the one
/// dedup rule every mix consumer (CLI parsing, sweep-config
/// normalization) shares.
pub fn dedup_mixes(mixes: Vec<CorunMix>) -> Vec<CorunMix> {
    let mut out: Vec<CorunMix> = Vec::with_capacity(mixes.len());
    for mix in mixes {
        if !out.iter().any(|have| have.label() == mix.label()) {
            out.push(mix);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_canonicalizes_and_staggers() {
        let mix = CorunMix::parse("cg + nek").unwrap();
        assert_eq!(mix.label(), "CG+Nek5000");
        assert_eq!(mix.members[0].weight, PRIORITY_WEIGHT);
        assert_eq!(mix.members[1].weight, 1);
        assert_eq!(mix.members[0].start_epoch, 0);
        assert_eq!(mix.members[1].start_epoch, STAGGER_STRIDE);
    }

    #[test]
    fn homogeneous_pairs_get_unique_tenant_names() {
        let mix = CorunMix::parse("CG+CG+CG").unwrap();
        let names: Vec<&str> = mix.members.iter().map(|m| m.tenant.as_str()).collect();
        assert_eq!(names, ["CG", "CG#2", "CG#3"]);
    }

    #[test]
    fn bad_specs_are_errors() {
        assert!(CorunMix::parse("CG").is_err(), "singletons are not co-runs");
        assert!(CorunMix::parse("CG+EP").unwrap_err().contains("EP"));
    }

    #[test]
    fn built_in_mixes_instantiate() {
        for mix in standard_mixes().iter().chain(&reduced_mixes()) {
            let tenants = mix.instantiate(Class::S);
            assert_eq!(tenants.len(), mix.members.len());
            for (m, w) in &tenants {
                assert!(!m.tenant.is_empty() && !w.name().is_empty());
                assert!(w.iterations() >= 1);
            }
        }
    }

    #[test]
    fn duplicate_mixes_collapse() {
        let mixes = parse_mixes(&["CG+FT", "cg+ft", "FT+CG"]).unwrap();
        assert_eq!(mixes.len(), 2, "CG+FT and FT+CG differ; cg+ft does not");
    }
}
