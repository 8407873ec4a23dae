//! X-Mem-style baseline: offline profiling, static data tiering.
//!
//! The paper compares against "a recent software-based solution for data
//! placement in HMS" (Dulloor et al., *Data Tiering in Heterogeneous
//! Memory Systems*, EuroSys'16), which it characterizes as: "X-Mem uses
//! PIN-based offline profiling to characterize memory access patterns and
//! make the decision on data placement. They do not consider data movement
//! cost and assume a homogeneous memory access pattern within a data
//! object."
//!
//! This crate implements exactly that decision procedure against our
//! workload models:
//!
//! 1. **offline profiling** — an exact (binary-instrumentation-accurate,
//!    no sampling) access profile of the *first* iteration of a training
//!    run: per object, total references and the dominant access pattern;
//! 2. **classification** — streaming / random / pointer-chasing, one label
//!    per object (homogeneous by assumption);
//! 3. **static placement** — rank objects by benefit *density*
//!    (per-byte predicted saving from DRAM residency) and fill DRAM
//!    greedily; place once, never move.
//!
//! The two deficiencies the paper exploits are faithfully present: no
//! movement-cost model (irrelevant for a static placement) and, more
//! importantly, **no phase or iteration adaptivity** — the placement is
//! frozen from the training iteration, so Nek5000's drifting access
//! pattern leaves it behind (Fig. 9/10's 10% gap on Nek5000).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use unimem::exec::{Policy, StepSpec, Workload};
use unimem_cache::{AccessPattern, CacheModel};
use unimem_hms::object::{ObjId, ObjectRegistry};
use unimem_hms::MachineConfig;
use unimem_sim::Bytes;

/// Per-object offline profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjProfile {
    pub obj: ObjId,
    pub name: String,
    pub size: Bytes,
    /// Exact main-memory references over the training iteration.
    pub misses: u64,
    /// Dominant pattern (by reference count) — X-Mem's homogeneity
    /// assumption collapses everything to one label per object.
    pub pattern: PatternClass,
}

/// X-Mem's three-way pattern taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternClass {
    Streaming,
    Random,
    PointerChasing,
}

fn classify(p: &AccessPattern) -> PatternClass {
    match p {
        AccessPattern::Streaming { .. } | AccessPattern::Stencil { .. } => PatternClass::Streaming,
        AccessPattern::Random | AccessPattern::Gather { .. } => PatternClass::Random,
        AccessPattern::PointerChase => PatternClass::PointerChasing,
    }
}

/// Run the offline training profile: exact per-object miss counts and
/// dominant patterns over the first iteration (rank 0's script of
/// iteration 0's epoch, as a representative training run).
pub fn offline_profile(
    workload: &dyn Workload,
    cache: &CacheModel,
    nranks: usize,
) -> Vec<ObjProfile> {
    let mut registry = ObjectRegistry::new();
    for spec in workload.objects(0, nranks) {
        registry.register(spec);
    }
    let mut misses: HashMap<ObjId, u64> = HashMap::new();
    let mut pattern_votes: HashMap<ObjId, HashMap<&'static str, (u64, PatternClass)>> =
        HashMap::new();
    let steps = workload.script(0, nranks, workload.script_epoch(0));
    for step in &steps {
        let StepSpec::Compute(spec) = step else {
            continue;
        };
        let total: Bytes = spec.accesses.iter().map(|a| a.touched).sum();
        for acc in &spec.accesses {
            let est = cache.misses(acc, total);
            *misses.entry(acc.obj).or_insert(0) += est.misses;
            let class = classify(&acc.pattern);
            let votes = pattern_votes.entry(acc.obj).or_default();
            let slot = votes.entry(acc.pattern.name()).or_insert((0, class));
            slot.0 += est.misses;
        }
    }
    registry
        .iter()
        .filter(|o| misses.get(&o.id).copied().unwrap_or(0) > 0)
        .map(|o| {
            let pattern = pattern_votes[&o.id]
                .values()
                .max_by_key(|(n, _)| *n)
                .map(|&(_, c)| c)
                .expect("object has misses, so it has votes");
            ObjProfile {
                obj: o.id,
                name: registry.name_of(o.id).to_string(),
                size: o.size,
                misses: misses[&o.id],
                pattern,
            }
        })
        .collect()
}

/// Static placement: rank by per-byte benefit, fill DRAM greedily.
/// Movement cost is ignored (X-Mem places before the run).
pub fn place(profiles: &[ObjProfile], machine: &MachineConfig, capacity: Bytes) -> Vec<String> {
    let mut scored: Vec<(&ObjProfile, f64)> = profiles
        .iter()
        .map(|p| {
            // Predicted per-object saving from DRAM: bandwidth delta for
            // streaming, latency delta for chasing, blend for random.
            let bytes = p.misses as f64 * 64.0;
            let bw_gain = bytes / machine.nvm.read_bw.bytes_per_s()
                - bytes / machine.dram.read_bw.bytes_per_s();
            let lat_gain =
                p.misses as f64 * (machine.nvm.read_lat.secs() - machine.dram.read_lat.secs());
            let gain = match p.pattern {
                PatternClass::Streaming => bw_gain,
                PatternClass::PointerChasing => lat_gain,
                PatternClass::Random => 0.5 * (bw_gain + lat_gain),
            };
            (p, gain / p.size.as_f64().max(1.0))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    let mut used = 0u64;
    let mut chosen = Vec::new();
    for (p, density) in scored {
        if density <= 0.0 {
            break;
        }
        if used + p.size.get() <= capacity.get() {
            used += p.size.get();
            chosen.push(p.name.clone());
        }
    }
    chosen
}

/// Build the X-Mem policy for a workload on a machine.
pub fn xmem_policy(
    workload: &dyn Workload,
    machine: &MachineConfig,
    cache: &CacheModel,
    nranks: usize,
) -> Policy {
    let profiles = offline_profile(workload, cache, nranks);
    let cap = Bytes(machine.dram_capacity.get() / machine.ranks_per_node as u64);
    Policy::Static {
        in_dram: place(&profiles, machine, cap),
        label: "X-Mem".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem::exec::run_workload;
    use unimem_workloads::{by_name, Class};

    fn setup() -> (MachineConfig, CacheModel) {
        (
            MachineConfig::nvm_bw_fraction(0.5),
            CacheModel::platform_a(),
        )
    }

    #[test]
    fn offline_profile_sees_hot_objects() {
        let (_, cache) = setup();
        let cg = by_name("CG", Class::C).unwrap();
        let profiles = offline_profile(cg.as_ref(), &cache, 4);
        let a = profiles.iter().find(|p| p.name == "a").expect("a profiled");
        assert!(a.misses > 0);
        // The CSR nonzero sweep streams; the gathered vector does not.
        assert_eq!(a.pattern, PatternClass::Streaming);
        let pv = profiles.iter().find(|p| p.name == "p").expect("p profiled");
        assert_eq!(pv.pattern, PatternClass::Random);
    }

    #[test]
    fn placement_respects_capacity() {
        let (m, cache) = setup();
        let sp = by_name("SP", Class::C).unwrap();
        let profiles = offline_profile(sp.as_ref(), &cache, 4);
        let chosen = place(&profiles, &m, Bytes::mib(256));
        let total: u64 = chosen
            .iter()
            .map(|n| profiles.iter().find(|p| &p.name == n).unwrap().size.get())
            .sum();
        assert!(total <= 256 << 20);
        assert!(!chosen.is_empty());
    }

    #[test]
    fn xmem_beats_nvm_only_on_stable_workloads() {
        let (m, cache) = setup();
        let cg = by_name("CG", Class::C).unwrap();
        let policy = xmem_policy(cg.as_ref(), &m, &cache, 4);
        let nvm = run_workload(cg.as_ref(), &m, &cache, 4, &Policy::NvmOnly).time();
        let xm = run_workload(cg.as_ref(), &m, &cache, 4, &policy).time();
        assert!(xm.secs() < nvm.secs(), "xmem={xm} nvm={nvm}");
    }

    #[test]
    fn unimem_beats_xmem_on_drifting_nek() {
        let (m, cache) = setup();
        let nek = by_name("Nek5000", Class::C).unwrap();
        let policy = xmem_policy(nek.as_ref(), &m, &cache, 4);
        let xm = run_workload(nek.as_ref(), &m, &cache, 4, &policy).time();
        let uni = run_workload(nek.as_ref(), &m, &cache, 4, &Policy::unimem()).time();
        assert!(
            uni.secs() < xm.secs(),
            "Unimem {uni} must beat X-Mem {xm} on Nek5000"
        );
    }

    #[test]
    fn policy_label_is_xmem() {
        let (m, cache) = setup();
        let lu = by_name("LU", Class::S).unwrap();
        assert_eq!(xmem_policy(lu.as_ref(), &m, &cache, 2).label(), "X-Mem");
    }
}
