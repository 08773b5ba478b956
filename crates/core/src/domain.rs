//! Measurement domains.
//!
//! A *domain* is one thing a sensor can attribute power/energy to: the whole
//! node, a CPU package, a GPU die, a GPU card (two dies on MI250X), the memory,
//! or the residual "other". Domains are the unit at which measurement records
//! are kept and at which the analysis crate aggregates.

use std::fmt;
use std::str::FromStr;

/// The class of hardware a measurement refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainKind {
    /// Whole node (BMC / pm_counters `power`).
    Node,
    /// One CPU package.
    Cpu,
    /// One GPU die (a GCD on MI250X, the full die on A100).
    Gpu,
    /// One physical GPU card. On MI250X this covers **two** dies; Cray
    /// `pm_counters` report at this granularity.
    GpuCard,
    /// Node DRAM.
    Memory,
    /// Residual: node minus everything attributed elsewhere.
    Other,
}

impl DomainKind {
    /// Short label used in file names and report columns.
    pub fn label(&self) -> &'static str {
        match self {
            DomainKind::Node => "node",
            DomainKind::Cpu => "cpu",
            DomainKind::Gpu => "gpu",
            DomainKind::GpuCard => "gpu_card",
            DomainKind::Memory => "mem",
            DomainKind::Other => "other",
        }
    }
}

/// One measurement domain: a kind plus an index (e.g. `gpu:3`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Domain {
    /// The hardware class.
    pub kind: DomainKind,
    /// Index within the class (0 for singleton domains such as the node).
    pub index: u32,
}

impl Domain {
    /// Build a domain.
    pub fn new(kind: DomainKind, index: u32) -> Self {
        Self { kind, index }
    }

    /// The whole-node domain.
    pub fn node() -> Self {
        Self::new(DomainKind::Node, 0)
    }

    /// CPU package `i`.
    pub fn cpu(i: u32) -> Self {
        Self::new(DomainKind::Cpu, i)
    }

    /// GPU die `i`.
    pub fn gpu(i: u32) -> Self {
        Self::new(DomainKind::Gpu, i)
    }

    /// GPU card `i`.
    pub fn gpu_card(i: u32) -> Self {
        Self::new(DomainKind::GpuCard, i)
    }

    /// Node memory.
    pub fn memory() -> Self {
        Self::new(DomainKind::Memory, 0)
    }

    /// Residual "other" domain.
    pub fn other() -> Self {
        Self::new(DomainKind::Other, 0)
    }

    /// True if this domain refers to GPU hardware (die or card granularity).
    pub fn is_gpu(&self) -> bool {
        matches!(self.kind, DomainKind::Gpu | DomainKind::GpuCard)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind.label(), self.index)
    }
}

impl FromStr for Domain {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind_str, idx_str) = s.split_once(':').ok_or_else(|| format!("domain {s:?} missing ':'"))?;
        let kind = match kind_str {
            "node" => DomainKind::Node,
            "cpu" => DomainKind::Cpu,
            "gpu" => DomainKind::Gpu,
            "gpu_card" => DomainKind::GpuCard,
            "mem" => DomainKind::Memory,
            "other" => DomainKind::Other,
            other => return Err(format!("unknown domain kind {other:?}")),
        };
        let index: u32 = idx_str.parse().map_err(|e| format!("bad domain index in {s:?}: {e}"))?;
        Ok(Domain { kind, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_from_str() {
        for d in [
            Domain::node(),
            Domain::cpu(1),
            Domain::gpu(7),
            Domain::gpu_card(3),
            Domain::memory(),
            Domain::other(),
        ] {
            let s = d.to_string();
            let parsed: Domain = s.parse().unwrap();
            assert_eq!(parsed, d, "round-trip failed for {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("gpu".parse::<Domain>().is_err());
        assert!("disk:0".parse::<Domain>().is_err());
        assert!("gpu:x".parse::<Domain>().is_err());
    }

    #[test]
    fn is_gpu_covers_both_granularities() {
        assert!(Domain::gpu(0).is_gpu());
        assert!(Domain::gpu_card(0).is_gpu());
        assert!(!Domain::cpu(0).is_gpu());
        assert!(!Domain::memory().is_gpu());
    }

    #[test]
    fn domains_are_ordered() {
        let mut v = [Domain::gpu(1), Domain::cpu(0), Domain::gpu(0)];
        v.sort();
        assert_eq!(v[0], Domain::cpu(0));
        assert_eq!(v[1], Domain::gpu(0));
    }
}
