//! The benchmark suite as the harnesses consume it.

use crate::bt::Bt;
use crate::cg::Cg;
use crate::classes::Class;
use crate::ft::Ft;
use crate::lu::Lu;
use crate::mg::Mg;
use crate::nek::Nek;
use crate::sp::Sp;
use unimem::exec::Workload;

/// The six NPB benchmarks in the paper's figure order.
pub fn all_npb(class: Class) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Cg::new(class)),
        Box::new(Ft::new(class)),
        Box::new(Bt::new(class)),
        Box::new(Lu::new(class)),
        Box::new(Sp::new(class)),
        Box::new(Mg::new(class)),
    ]
}

/// NPB plus Nek5000-eddy (the Fig. 9/10/11 and Table 4 set).
pub fn npb_and_nek(class: Class) -> Vec<Box<dyn Workload>> {
    let mut v = all_npb(class);
    v.push(Box::new(Nek::new(class)));
    v
}

/// Canonical short names of the full evaluation suite, in the paper's
/// figure order. The sweep harness iterates this list; `by_name` accepts
/// every entry. Nek5000 is last (the drifting-pattern case study).
pub const SUITE_NAMES: [&str; 7] = ["CG", "FT", "BT", "LU", "SP", "MG", "Nek5000"];

/// A suite member paired with its canonical short name.
pub type NamedWorkload = (String, Box<dyn Workload>);

/// The canonical `SUITE_NAMES` spelling for any alias `by_name` accepts
/// ("nek" → "Nek5000", "cg" → "CG"); `None` for unknown names.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    match name.to_ascii_uppercase().as_str() {
        "CG" => Some("CG"),
        "FT" => Some("FT"),
        "BT" => Some("BT"),
        "LU" => Some("LU"),
        "SP" => Some("SP"),
        "MG" => Some("MG"),
        "NEK" | "NEK5000" | "NEK5000-EDDY" => Some("Nek5000"),
        _ => None,
    }
}

/// Canonicalize a list of suite names to their `SUITE_NAMES` spellings,
/// collapsing duplicates (including alias duplicates like
/// "nek,Nek5000") to one entry, first occurrence wins. Unknown names
/// are errors rather than silent drops — a sweep that quietly skips a
/// workload would still claim full matrix coverage.
pub fn canonicalize_names(names: &[&str]) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::with_capacity(names.len());
    for n in names {
        let canon = canonical_name(n)
            .ok_or_else(|| format!("unknown workload {n:?}; known: {SUITE_NAMES:?}"))?;
        if !out.iter().any(|have| have == canon) {
            out.push(canon.to_string());
        }
    }
    Ok(out)
}

/// Enumerate `(short name, workload)` pairs for a selection of suite
/// members, with [`canonicalize_names`]'s canonicalization/dedup/error
/// semantics.
pub fn select(names: &[&str], class: Class) -> Result<Vec<NamedWorkload>, String> {
    Ok(canonicalize_names(names)?
        .into_iter()
        .map(|canon| {
            let w = by_name(&canon, class).expect("canonical names resolve");
            (canon, w)
        })
        .collect())
}

/// Look a workload up by its short name ("CG", "FT", …, "Nek5000") or
/// any alias [`canonical_name`] accepts.
pub fn by_name(name: &str, class: Class) -> Option<Box<dyn Workload>> {
    Some(match canonical_name(name)? {
        "CG" => Box::new(Cg::new(class)),
        "FT" => Box::new(Ft::new(class)),
        "BT" => Box::new(Bt::new(class)),
        "LU" => Box::new(Lu::new(class)),
        "SP" => Box::new(Sp::new(class)),
        "MG" => Box::new(Mg::new(class)),
        "Nek5000" => Box::new(Nek::new(class)),
        canon => unreachable!("canonical name {canon} has no workload"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn suite_has_paper_order() {
        let names: Vec<String> = all_npb(Class::C).iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["CG.C", "FT.C", "BT.C", "LU.C", "SP.C", "MG.C"]);
        assert_eq!(npb_and_nek(Class::C).len(), 7);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("cg", Class::S).is_some());
        assert!(by_name("Nek5000", Class::S).is_some());
        assert!(by_name("EP", Class::S).is_none());
    }

    #[test]
    fn suite_names_cover_the_whole_suite() {
        let sel = select(&SUITE_NAMES, Class::S).expect("all canonical names resolve");
        assert_eq!(sel.len(), 7);
        let names: Vec<&str> = sel.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, SUITE_NAMES);
        assert!(
            select(&["CG", "EP"], Class::S).is_err(),
            "unknown name is an error"
        );
    }

    #[test]
    fn select_canonicalizes_and_dedups_aliases() {
        let sel = select(&["nek", "cg", "NEK5000-EDDY", "CG"], Class::S).unwrap();
        let names: Vec<&str> = sel.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Nek5000", "CG"], "alias duplicates collapse");
        assert_eq!(canonical_name("EP"), None);
    }

    #[test]
    fn every_workload_has_consistent_object_ids() {
        // Descriptors must reference registered object ids only, in
        // every script epoch a run reaches.
        for w in npb_and_nek(Class::S) {
            let n_objs = w.objects(0, 2).len() as u32;
            let epochs: BTreeSet<usize> =
                (0..w.iterations()).map(|it| w.script_epoch(it)).collect();
            for epoch in epochs {
                for step in w.script(0, 2, epoch) {
                    if let unimem::exec::StepSpec::Compute(c) = step {
                        for acc in &c.accesses {
                            assert!(
                                acc.obj.0 < n_objs,
                                "{}: access to unregistered obj {} (have {n_objs})",
                                w.name(),
                                acc.obj.0
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_workload_runs_under_every_basic_policy() {
        use unimem::exec::{run_workload, Policy};
        use unimem_cache::CacheModel;
        use unimem_hms::MachineConfig;
        let cache = CacheModel::new(unimem_sim::Bytes::kib(512));
        let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(unimem_sim::Bytes::mib(4));
        for w in npb_and_nek(Class::S) {
            for policy in [Policy::DramOnly, Policy::NvmOnly, Policy::unimem()] {
                let rep = run_workload(w.as_ref(), &m, &cache, 2, &policy);
                assert!(
                    rep.time().secs() > 0.0,
                    "{} under {:?} produced zero time",
                    w.name(),
                    rep.policy
                );
            }
        }
    }
}
