//! Measurement records and per-rank reports.
//!
//! The paper's methodology (§2): energy consumption is measured per MPI rank for
//! every instrumented function call, gathered at the end of the execution and
//! stored into a file for post-hoc analysis, to avoid perturbing the running
//! simulation. [`MeasurementRecord`] is one instrumented region on one rank;
//! [`RankReport`] is everything a rank writes out; the CSV round-trip is what a
//! real deployment would put on the parallel filesystem.
//!
//! # Layout and order
//!
//! A production run closes millions of regions and keeps every record until
//! it ends, so a record owns no heap memory of its own in the common case and
//! stores nothing its meter or its report already holds. Its [`Label`] is a
//! reference to the one allocation its meter made for that label. Its rank is
//! not a field: the meter and the [`RankReport`] hold it once. Its
//! [`DomainEnergies`] is a thin reference to the meter's one sorted domain
//! list, a single allocation that holds up to eight domains, plus the joules,
//! one per domain, stored inline (up to eight; past eight the list and the
//! joules both spill to the heap). That reference is never null, and its
//! niche tells inline joules from spilled ones, so the joules carry no tag of
//! their own. A LUMI-G campaign record is 120 bytes.
//!
//! The domain list is kept in [`Domain`] `Ord` order (node, CPU packages, GPU
//! dies, GPU cards, memory, other — each by index) and every consumer iterates
//! it in that order: `energy_by_kind`, [`RankReport::total_by_domain`], a
//! `values().sum()`, the rows of the CSV and the pairs on the wire.
//! Floating-point addition does not associate, so the order *is* part of every
//! published sum; nothing may reorder it.
//!
//! A finished list of records is shared, never copied: [`Records`] is one
//! reference-counted list that is filled as a plain `Vec` (by the meter, the
//! CSV parser or the wire decoder) and wrapped once. Cloning a report, as a
//! campaign does for every rank of a node its one meter stands for, bumps a
//! count; nothing pushes into a finished report.

use crate::domain::{Domain, DomainKind};
use crate::error::{PmtError, Result};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// A region label, e.g. `"MomentumEnergy"`: an immutable string shared by
/// every record that carries it. A meter allocates each distinct label once;
/// cloning a `Label` (and so a record) copies a pointer.
///
/// It reads as a `&str` (`Deref`, `Display`) and compares with `&str`
/// and `String` on either side.
#[derive(Clone, PartialEq, Eq)]
pub struct Label(Arc<str>);

impl Label {
    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared copy of `text` in `known`, where a new label is added
    /// while `known` holds fewer than 64 (`INTERNED_LABELS`): a caller that
    /// makes up a new label per region (`format!("step{i}")`) stops being
    /// interned there, so the lookup stays a short scan. A meter, a parsed
    /// CSV report and a decoded wire report each keep one such list.
    pub fn intern(known: &mut Vec<Label>, text: &str) -> Label {
        if let Some(label) = known.iter().find(|label| label.as_str() == text) {
            return label.clone();
        }
        let new = Label::from(text);
        if known.len() < INTERNED_LABELS {
            known.push(new.clone());
        }
        new
    }
}

/// How many distinct labels a meter, or a report being parsed or decoded,
/// shares: several times the stages, steps and loops a driver of this
/// workspace names.
pub(crate) const INTERNED_LABELS: usize = 64;

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(label: &str) -> Self {
        Self(Arc::from(label))
    }
}

impl From<String> for Label {
    fn from(label: String) -> Self {
        Self(Arc::from(label))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

macro_rules! label_eq {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Label {
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == &other[..]
            }
        }

        impl PartialEq<Label> for $other {
            fn eq(&self, other: &Label) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}

label_eq!(&str, String);

/// How many domains a record holds its joules for, and a domain list holds
/// its domains for, without a heap allocation of their own: a LUMI-G node
/// read through `pm_counters` has 7 (node, CPU, memory, four cards), a
/// per-die GPU back-end 8.
const INLINE_DOMAINS: usize = 8;

/// A sorted, distinct list of domains, shared by every record a meter closes
/// behind one thin [`Arc`]: the list of up to eight domains sits inside that
/// one allocation; a longer one spills to the heap, as the joules do.
pub(crate) enum DomainList {
    Inline { len: u8, domains: [Domain; INLINE_DOMAINS] },
    Spilled(Vec<Domain>),
}

impl Default for DomainList {
    fn default() -> Self {
        std::iter::empty().collect()
    }
}

impl Deref for DomainList {
    type Target = [Domain];

    fn deref(&self) -> &[Domain] {
        match self {
            DomainList::Inline { len, domains } => &domains[..usize::from(*len)],
            DomainList::Spilled(domains) => domains,
        }
    }
}

impl FromIterator<Domain> for DomainList {
    /// The domains in the order given; the caller sorts them.
    fn from_iter<I: IntoIterator<Item = Domain>>(iter: I) -> Self {
        let mut iter = iter.into_iter().fuse();
        let mut domains = [Domain::node(); INLINE_DOMAINS];
        let mut len = 0;
        for (slot, domain) in domains.iter_mut().zip(iter.by_ref()) {
            *slot = domain;
            len += 1;
        }
        match iter.next() {
            None => DomainList::Inline { len, domains },
            Some(ninth) => DomainList::Spilled(domains.into_iter().chain([ninth]).chain(iter).collect()),
        }
    }
}

/// The shared domain list of a meter and of every record it closes.
pub(crate) type Domains = Arc<DomainList>;

/// The joules one record attributes to each measurement domain, read like
/// the `BTreeMap<Domain, f64>` it replaces (`get`, `iter`, `values`, `len`,
/// `for (domain, joules) in &energies`, `collect()`), in [`Domain`] order.
///
/// The sorted domain list is a shared reference: every record a meter closes
/// holds the meter's one list, which the meter rebuilds only when a domain
/// first appears. The joules sit beside it, up to eight inside the value
/// itself; a meter with more spills each record's joules to the heap.
#[derive(Clone)]
pub struct DomainEnergies(Energies);

/// The two layouts of a [`DomainEnergies`]. Both hold the domain list, so
/// its non-null pointer tells them apart and the joules need no tag of their
/// own.
#[derive(Clone)]
enum Energies {
    Inline {
        domains: Domains,
        joules: [f64; INLINE_DOMAINS],
    },
    Spilled {
        domains: Domains,
        joules: Vec<f64>,
    },
}

impl DomainEnergies {
    /// An empty sequence.
    pub fn new() -> Self {
        Self::from_parts(Arc::default(), std::iter::empty())
    }

    /// The joules of `domains`, which must be sorted and distinct, one per
    /// domain in the same order.
    pub(crate) fn from_parts(domains: Domains, joules: impl IntoIterator<Item = f64>) -> Self {
        if domains.len() <= INLINE_DOMAINS {
            let mut slots = [0.0; INLINE_DOMAINS];
            for (slot, j) in slots.iter_mut().zip(joules) {
                *slot = j;
            }
            Self(Energies::Inline { domains, joules: slots })
        } else {
            let joules = joules.into_iter().take(domains.len()).collect();
            Self(Energies::Spilled { domains, joules })
        }
    }

    /// The energies of `pairs`, read as `collect()` reads them, holding
    /// `like`'s domain list instead of a new one when the domains are the
    /// same: a list of records decoded one after the other keeps one domain
    /// list per run of equal lists, as the meter that closed them did.
    pub fn collect_like(pairs: &[(Domain, f64)], like: Option<&Self>) -> Self {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            return pairs.iter().copied().collect();
        }
        let domains = match like {
            Some(like) if like.domains().iter().eq(pairs.iter().map(|(d, _)| d)) => Arc::clone(like.domains()),
            _ => Arc::new(pairs.iter().map(|(d, _)| *d).collect()),
        };
        Self::from_parts(domains, pairs.iter().map(|(_, j)| *j))
    }

    /// The shared domain list.
    fn domains(&self) -> &Domains {
        match &self.0 {
            Energies::Inline { domains, .. } | Energies::Spilled { domains, .. } => domains,
        }
    }

    /// The joules, one per domain, in [`Domain`] order.
    fn joules(&self) -> &[f64] {
        match &self.0 {
            Energies::Inline { domains, joules } => &joules[..domains.len()],
            Energies::Spilled { joules, .. } => joules,
        }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains().len()
    }

    /// True if no domain was measured.
    pub fn is_empty(&self) -> bool {
        self.domains().is_empty()
    }

    /// Joules of `domain`, if it was measured.
    fn get(&self, domain: &Domain) -> Option<&f64> {
        let at = self.domains().binary_search(domain).ok()?;
        Some(&self.joules()[at])
    }

    /// Set the joules of `domain`, keeping the sequence sorted; returns the
    /// value it replaced. A domain not yet in the sequence gives this value
    /// a domain list of its own.
    pub fn insert(&mut self, domain: Domain, joules: f64) -> Option<f64> {
        if let Ok(at) = self.domains().binary_search(&domain) {
            let slot = match &mut self.0 {
                Energies::Inline { joules, .. } => &mut joules[at],
                Energies::Spilled { joules, .. } => &mut joules[at],
            };
            return Some(std::mem::replace(slot, joules));
        }
        *self = self.iter().map(|(d, j)| (*d, *j)).chain([(domain, joules)]).collect();
        None
    }

    /// `(domain, joules)` pairs in [`Domain`] order.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The joules alone, in [`Domain`] order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &f64> + '_ {
        self.joules().iter()
    }

    /// True if `self` and `other` hold the same domain-list allocation.
    #[cfg(test)]
    pub(crate) fn shares_domains_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(self.domains(), other.domains())
    }
}

impl Default for DomainEnergies {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for DomainEnergies {
    fn eq(&self, other: &Self) -> bool {
        self.domains()[..] == other.domains()[..] && self.joules() == other.joules()
    }
}

impl fmt::Debug for DomainEnergies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(Domain, f64)> for DomainEnergies {
    /// Sorted by domain; of a domain given twice, the last joules count.
    fn from_iter<I: IntoIterator<Item = (Domain, f64)>>(iter: I) -> Self {
        let mut pairs: Vec<(Domain, f64)> = iter.into_iter().collect();
        pairs.sort_by_key(|(domain, _)| *domain);
        pairs.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                kept.1 = later.1;
            }
            repeated
        });
        Self::collect_like(&pairs, None)
    }
}

impl<'a> IntoIterator for &'a DomainEnergies {
    type Item = (&'a Domain, &'a f64);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, Domain>, std::slice::Iter<'a, f64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.domains().iter().zip(self.joules())
    }
}

/// The result of measuring one instrumented region (one function call, one
/// timestep, or the whole time-stepping loop) on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasurementRecord {
    /// Region label, e.g. `"MomentumEnergy"`.
    pub label: Label,
    /// Timestep / iteration index, if the caller set one.
    pub iteration: Option<u64>,
    /// Region start time on the meter's clock, in seconds.
    pub start_s: f64,
    /// Region end time on the meter's clock, in seconds.
    pub end_s: f64,
    /// Energy attributed to each measurement domain during the region, in
    /// joules, in [`Domain`] order.
    pub energy_j: DomainEnergies,
}

impl MeasurementRecord {
    /// Region duration in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// Energy of a specific domain, 0.0 if absent.
    pub fn energy(&self, domain: Domain) -> f64 {
        self.energy_j.get(&domain).copied().unwrap_or(0.0)
    }

    /// Sum of the energy of all domains of a given kind.
    pub fn energy_by_kind(&self, kind: DomainKind) -> f64 {
        self.energy_j.iter().filter(|(d, _)| d.kind == kind).map(|(_, e)| e).sum()
    }
}

/// The records of a finished report: one shared, read-only list that reads
/// as a `&[MeasurementRecord]`. A clone is a reference-count increment, not
/// a copy. It is built once from a `Vec` (`From`), without copying a record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Records(Arc<Vec<MeasurementRecord>>);

impl Deref for Records {
    type Target = [MeasurementRecord];

    fn deref(&self) -> &[MeasurementRecord] {
        &self.0
    }
}

impl From<Vec<MeasurementRecord>> for Records {
    fn from(records: Vec<MeasurementRecord>) -> Self {
        Self(Arc::new(records))
    }
}

impl From<Records> for Vec<MeasurementRecord> {
    /// The list itself when no other report shares it, a copy otherwise.
    fn from(records: Records) -> Self {
        Arc::try_unwrap(records.0).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = &'a MeasurementRecord;
    type IntoIter = std::slice::Iter<'a, MeasurementRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Everything one rank measured during a run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RankReport {
    /// MPI rank.
    pub rank: u32,
    /// Hostname of the node the rank executed on.
    pub hostname: String,
    /// All measurement records, in completion order.
    pub records: Records,
}

impl RankReport {
    /// Serialise to CSV with columns
    /// `label,rank,hostname,iteration,start_s,end_s,domain,energy_j`
    /// (one row per record × domain).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label,rank,hostname,iteration,start_s,end_s,domain,energy_j\n");
        for r in &self.records {
            let iter_str = r.iteration.map(|i| i.to_string()).unwrap_or_default();
            for (domain, energy) in &r.energy_j {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:.9},{:.9},{},{:.6}",
                    r.label, self.rank, self.hostname, iter_str, r.start_s, r.end_s, domain, energy
                );
            }
        }
        out
    }

    /// Parse a report back from the CSV produced by [`RankReport::to_csv`].
    /// The first row names the report's rank and host; a row of another
    /// rank or host is an error.
    pub fn from_csv(csv: &str) -> Result<Self> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or_else(|| PmtError::parse("rank report CSV", "empty input"))?;
        if !header.starts_with("label,rank,hostname") {
            return Err(PmtError::parse("rank report CSV header", header));
        }
        let (mut report_rank, mut report_host) = (0, String::new());
        let mut records = Vec::new();
        // The record being read, and its energies so far; `push_parsed`
        // replaces the shared empty placeholder it starts with.
        let mut current: Option<MeasurementRecord> = None;
        let mut energies: Vec<(Domain, f64)> = Vec::new();
        let placeholder = DomainEnergies::new();
        let mut labels = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 8 {
                return Err(PmtError::parse("rank report CSV row", line));
            }
            let label = fields[0];
            let rank: u32 = fields[1].parse().map_err(|_| PmtError::parse("rank", line))?;
            let hostname = fields[2];
            let iteration = if fields[3].is_empty() {
                None
            } else {
                Some(fields[3].parse().map_err(|_| PmtError::parse("iteration", line))?)
            };
            let start_s: f64 = fields[4].parse().map_err(|_| PmtError::parse("start_s", line))?;
            let end_s: f64 = fields[5].parse().map_err(|_| PmtError::parse("end_s", line))?;
            let domain: Domain = fields[6].parse().map_err(|e| PmtError::parse("domain", e))?;
            let energy: f64 = fields[7].parse().map_err(|_| PmtError::parse("energy_j", line))?;

            if current.is_none() {
                report_rank = rank;
                report_host = hostname.to_string();
            } else if rank != report_rank || hostname != report_host {
                return Err(PmtError::parse("rank report CSV row of another rank or host", line));
            }

            // A row continues the current record unless its domain is already
            // there: two back-to-back regions of one label on a clock that did
            // not move share every other column.
            let same_record = current.as_ref().is_some_and(|c| {
                c.label == label
                    && c.start_s == start_s
                    && c.end_s == end_s
                    && c.iteration == iteration
                    && energies.iter().all(|(d, _)| *d != domain)
            });
            if !same_record {
                push_parsed(&mut records, current.take(), &energies);
                energies.clear();
                current = Some(MeasurementRecord {
                    label: Label::intern(&mut labels, label),
                    iteration,
                    start_s,
                    end_s,
                    energy_j: placeholder.clone(),
                });
            }
            energies.push((domain, energy));
        }
        push_parsed(&mut records, current.take(), &energies);
        Ok(RankReport {
            rank: report_rank,
            hostname: report_host,
            records: records.into(),
        })
    }

    /// Write the CSV representation to a file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        fs::write(path, self.to_csv()).map_err(|e| PmtError::io(path, e))
    }

    /// Read a report from a CSV file.
    // sphlint::allow(dead-pub, reads back the CSV the end-to-end measurement test writes)
    pub fn read_csv(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let content = fs::read_to_string(path).map_err(|e| PmtError::io(path, e))?;
        Self::from_csv(&content)
    }

    /// Total energy per domain across all records, in joules.
    pub fn total_by_domain(&self) -> BTreeMap<Domain, f64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            for (d, e) in &r.energy_j {
                *out.entry(*d).or_insert(0.0) += e;
            }
        }
        out
    }
}

/// Append a parsed `record`, if there is one, with its `energies`; it shares
/// the previous record's domain list where the domains are equal.
fn push_parsed(records: &mut Vec<MeasurementRecord>, record: Option<MeasurementRecord>, energies: &[(Domain, f64)]) {
    if let Some(mut record) = record {
        record.energy_j = DomainEnergies::collect_like(energies, records.last().map(|r| &r.energy_j));
        records.push(record);
    }
}

/// Per-label aggregate over many records (e.g. all calls of `MomentumEnergy`
/// across all timesteps on one rank).
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionAggregate {
    /// Region label.
    pub label: String,
    /// Number of records folded in.
    pub calls: u64,
    /// Summed duration in seconds.
    pub total_time_s: f64,
    /// Summed energy per domain in joules.
    pub energy_j: BTreeMap<Domain, f64>,
}

impl FunctionAggregate {
    /// Sum of the energy of all domains of a given kind.
    pub fn energy_by_kind(&self, kind: DomainKind) -> f64 {
        self.energy_j.iter().filter(|(d, _)| d.kind == kind).map(|(_, e)| e).sum()
    }
}

/// Aggregate records by label (insertion order of first appearance).
pub fn aggregate_by_label(records: &[MeasurementRecord]) -> Vec<FunctionAggregate> {
    let mut order: Vec<String> = Vec::new();
    let mut map: BTreeMap<String, FunctionAggregate> = BTreeMap::new();
    for r in records {
        if !map.contains_key(r.label.as_str()) {
            order.push(r.label.to_string());
            map.insert(
                r.label.to_string(),
                FunctionAggregate {
                    label: r.label.to_string(),
                    calls: 0,
                    total_time_s: 0.0,
                    energy_j: BTreeMap::new(),
                },
            );
        }
        let agg = map.get_mut(r.label.as_str()).expect("inserted above");
        agg.calls += 1;
        agg.total_time_s += r.duration_s();
        for (d, e) in &r.energy_j {
            *agg.energy_j.entry(*d).or_insert(0.0) += e;
        }
    }
    order.into_iter().map(|l| map.remove(&l).unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MeasurementRecord {
        /// Total energy across all domains but the node, in joules: when a
        /// sensor reports both node-level and per-device domains, the node
        /// value already contains the devices.
        fn total_device_energy_j(&self) -> f64 {
            self.energy_j
                .iter()
                .filter(|(d, _)| d.kind != DomainKind::Node)
                .map(|(_, e)| e)
                .sum()
        }

        /// Energy-delay product (total device energy × duration), in J·s.
        fn edp(&self) -> f64 {
            self.total_device_energy_j() * self.duration_s()
        }
    }

    impl FunctionAggregate {
        /// Total non-node energy in joules.
        fn total_device_energy_j(&self) -> f64 {
            self.energy_j
                .iter()
                .filter(|(d, _)| d.kind != DomainKind::Node)
                .map(|(_, e)| e)
                .sum()
        }

        /// Energy-delay product (total device energy × summed duration) in J·s.
        fn edp(&self) -> f64 {
            self.total_device_energy_j() * self.total_time_s
        }
    }

    fn pairs(energies: &DomainEnergies) -> Vec<(Domain, f64)> {
        energies.iter().map(|(d, j)| (*d, *j)).collect()
    }

    fn report(rank: u32, hostname: &str, records: Vec<MeasurementRecord>) -> RankReport {
        RankReport {
            rank,
            hostname: hostname.into(),
            records: records.into(),
        }
    }

    fn record(label: &str, start: f64, end: f64, gpu: f64, cpu: f64) -> MeasurementRecord {
        let mut energy = DomainEnergies::new();
        energy.insert(Domain::gpu(0), gpu);
        energy.insert(Domain::cpu(0), cpu);
        MeasurementRecord {
            label: label.into(),
            iteration: Some(7),
            start_s: start,
            end_s: end,
            energy_j: energy,
        }
    }

    #[test]
    fn labels_read_and_compare_as_strings() {
        let label = Label::from("XMass");
        let copy = label.clone();
        assert_eq!(label, copy);
        let owned = String::from("XMass");
        assert_eq!(label, "XMass");
        assert_eq!("XMass", label);
        assert_eq!(label, owned);
        assert_eq!(owned, label);
        assert_ne!(label, "MomentumEnergy");
        assert_eq!(label.len(), 5, "str methods through Deref");
        assert_eq!(format!("{label} {label:?}"), "XMass \"XMass\"");
        assert_eq!(Label::from("XMass".to_string()).as_str(), "XMass");
    }

    #[test]
    fn energies_stay_sorted_inline_and_spilled() {
        // Inserted back to front: every insert lands at position 0.
        let domains: Vec<Domain> = (0..12).map(Domain::gpu).collect();
        let mut energies = DomainEnergies::new();
        assert!(energies.is_empty());
        for (n, domain) in domains.iter().rev().enumerate() {
            assert_eq!(energies.insert(*domain, f64::from(domain.index)), None);
            assert_eq!(energies.len(), n + 1);
            let keys: Vec<Domain> = energies.iter().map(|(d, _)| *d).collect();
            assert_eq!(keys, domains[domains.len() - 1 - n..], "sorted after {} inserts", n + 1);
        }
        assert_eq!(energies.get(&Domain::gpu(7)), Some(&7.0));
        assert_eq!(energies.get(&Domain::node()), None);
        assert_eq!(energies.insert(Domain::gpu(7), 70.0), Some(7.0));
        assert_eq!(energies.len(), 12);
        assert_eq!(energies.values().sum::<f64>(), 66.0 + 63.0);

        // Appended in order — what the meter does — inline and past the spill.
        let appended: DomainEnergies = domains.iter().map(|d| (*d, f64::from(d.index))).collect();
        energies.insert(Domain::gpu(7), 7.0);
        assert_eq!(appended, energies);
        assert_eq!(
            pairs(&appended),
            domains.iter().map(|d| (*d, f64::from(d.index))).collect::<Vec<_>>()
        );
        assert_eq!(
            format!(
                "{:?}",
                domains[..2].iter().map(|d| (*d, 1.5)).collect::<DomainEnergies>()
            ),
            format!(
                "{:?}",
                domains[..2].iter().map(|d| (*d, 1.5)).collect::<BTreeMap<_, _>>()
            )
        );
    }

    #[test]
    fn in_order_entries_append_and_out_of_order_ones_still_sort() {
        let lumi = [
            Domain::node(),
            Domain::cpu(0),
            Domain::gpu(0),
            Domain::gpu(1),
            Domain::gpu_card(0),
            Domain::gpu_card(1),
            Domain::gpu_card(2),
            Domain::gpu_card(3),
            Domain::memory(),
        ];
        assert!(lumi.windows(2).all(|w| w[0] < w[1]));
        let entry = |k: usize| (lumi[k], k as f64 + 0.5);
        // In order, inline and past the spill: `collect()` appends every entry
        // and equals the sequence built by `insert` one by one.
        for n in [7, lumi.len()] {
            let collected: DomainEnergies = (0..n).map(entry).collect();
            let mut inserted = DomainEnergies::new();
            for (domain, joules) in (0..n).map(entry) {
                assert_eq!(inserted.insert(domain, joules), None);
            }
            assert_eq!(collected, inserted);
            assert_eq!(pairs(&collected), (0..n).map(entry).collect::<Vec<_>>());
        }
        // Out of order, repeating the last entry and an inner one: sorted,
        // each domain once, as a `BTreeMap` has it.
        let order = [3, 8, 8, 0, 5, 5, 1, 7, 2, 3, 6, 4];
        for n in [7, order.len()] {
            let energies: DomainEnergies = order[..n].iter().map(|&k| entry(k)).collect();
            let reference: BTreeMap<Domain, f64> = order[..n].iter().map(|&k| entry(k)).collect();
            assert_eq!(pairs(&energies), reference.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_campaign_record_owns_no_heap_memory() {
        // The widest record a campaign writes: a LUMI-G node through
        // pm_counters. Its joules must fit inline, beside a thin shared
        // domain list, in a record of at most one and seven eighths cache
        // lines.
        let lumi = [
            Domain::node(),
            Domain::cpu(0),
            Domain::gpu_card(0),
            Domain::gpu_card(1),
            Domain::gpu_card(2),
            Domain::gpu_card(3),
            Domain::memory(),
        ];
        assert!(lumi.len() <= INLINE_DOMAINS);
        let energies: DomainEnergies = lumi.iter().map(|d| (*d, 1.0)).collect();
        assert!(matches!(energies.0, Energies::Inline { .. }));
        assert_eq!(energies.len(), 7);
        assert!(std::mem::size_of::<MeasurementRecord>() <= 120);
        assert!(std::mem::size_of::<DomainEnergies>() <= 72);
    }

    #[test]
    fn eight_domains_stay_in_one_allocation_and_nine_spill_both_lists() {
        let domains: Vec<Domain> = (0..9).map(Domain::gpu).collect();
        for n in [INLINE_DOMAINS, INLINE_DOMAINS + 1] {
            let entry = |d: &Domain| (*d, f64::from(d.index) + 0.25);
            let energies: DomainEnergies = domains[..n].iter().map(entry).collect();
            let inline = n <= INLINE_DOMAINS;
            assert_eq!(matches!(energies.0, Energies::Inline { .. }), inline, "{n} domains");
            assert_eq!(
                matches!(**energies.domains(), DomainList::Inline { .. }),
                inline,
                "{n} domains"
            );
            assert_eq!(pairs(&energies), domains[..n].iter().map(entry).collect::<Vec<_>>());

            let last = domains[n - 1];
            assert_eq!(energies.get(&last), Some(&(f64::from(last.index) + 0.25)));
            assert_eq!(energies.get(&Domain::node()), None);
            let mut changed = energies.clone();
            assert_eq!(changed.insert(last, 1.0), Some(f64::from(last.index) + 0.25));
            assert!(changed.shares_domains_with(&energies), "a known domain keeps the list");
            assert_ne!(changed, energies);
            assert_eq!(changed.insert(last, f64::from(last.index) + 0.25), Some(1.0));
            assert_eq!(changed, energies);
            let mut grown = energies.clone();
            assert_eq!(grown.insert(Domain::node(), 2.0), None);
            assert_eq!(grown.len(), n + 1);
            assert_eq!(grown.iter().next(), Some((&Domain::node(), &2.0)));

            let records = [0.0, 1.0].map(|start| MeasurementRecord {
                label: "XMass".into(),
                iteration: None,
                start_s: start,
                end_s: start + 1.0,
                energy_j: energies.clone(),
            });
            let report = report(2, "nid000002", records.into());
            let parsed = RankReport::from_csv(&report.to_csv()).unwrap();
            assert_eq!(parsed, report, "{n} domains through CSV");
            assert!(parsed.records[1].energy_j.shares_domains_with(&parsed.records[0].energy_j));
        }
    }

    #[test]
    fn duration_and_totals() {
        let r = record("MomentumEnergy", 1.0, 3.5, 1000.0, 100.0);
        assert!((r.duration_s() - 2.5).abs() < 1e-12);
        assert!((r.total_device_energy_j() - 1100.0).abs() < 1e-12);
        assert!((r.energy_by_kind(DomainKind::Gpu) - 1000.0).abs() < 1e-12);
        assert!((r.edp() - 1100.0 * 2.5).abs() < 1e-9);
        assert_eq!(r.energy(Domain::memory()), 0.0);
    }

    #[test]
    fn node_domain_excluded_from_device_total() {
        let mut r = record("x", 0.0, 1.0, 10.0, 5.0);
        r.energy_j.insert(Domain::node(), 100.0);
        assert!((r.total_device_energy_j() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip() {
        let records = vec![
            record("XMass", 0.0, 1.0, 10.0, 2.0),
            record("MomentumEnergy", 1.0, 3.0, 50.0, 4.0),
        ];
        let report = report(3, "nid001234", records);
        let csv = report.to_csv();
        let parsed = RankReport::from_csv(&csv).unwrap();
        assert_eq!(parsed, report);
        assert!(parsed.records[1].energy_j.shares_domains_with(&parsed.records[0].energy_j));
    }

    #[test]
    fn a_clone_shares_the_record_list_and_a_parsed_report_owns_its_own() {
        let records = vec![record("XMass", 0.0, 1.0, 10.0, 2.0)];
        let at = records.as_ptr();
        let report = report(3, "nid001234", records);
        assert_eq!(report.records.as_ptr(), at, "wrapped, not copied");
        assert_eq!(report.clone().records.as_ptr(), at);
        let parsed = RankReport::from_csv(&report.to_csv()).unwrap();
        assert_eq!(parsed, report);
        assert_ne!(parsed.records.as_ptr(), at);
    }

    #[test]
    fn csv_records_of_one_label_share_its_allocation() {
        let records = (0..3)
            .map(f64::from)
            .flat_map(|start| {
                [
                    record("XMass", start, start + 0.5, 10.0, 2.0),
                    record("MomentumEnergy", start + 0.5, start + 1.0, 50.0, 4.0),
                ]
            })
            .collect();
        let report = report(1, "nid000001", records);
        let parsed = RankReport::from_csv(&report.to_csv()).unwrap();
        assert_eq!(parsed, report);
        let label = |i: usize| parsed.records[i].label.as_str();
        assert!(std::ptr::eq(label(0), label(2)) && std::ptr::eq(label(0), label(4)));
        assert!(std::ptr::eq(label(1), label(3)) && std::ptr::eq(label(1), label(5)));
        assert!(!std::ptr::eq(label(0), label(1)));
    }

    #[test]
    fn csv_round_trip_without_iteration() {
        let mut r = record("total", 0.0, 10.0, 100.0, 10.0);
        r.iteration = None;
        let report = report(0, "host", vec![r]);
        let parsed = RankReport::from_csv(&report.to_csv()).unwrap();
        assert_eq!(parsed.records[0].iteration, None);
    }

    #[test]
    fn csv_keeps_back_to_back_records_that_share_label_and_window() {
        let meter = crate::meter::PowerMeter::builder()
            .sensor(crate::backends::DummySensor::new(Domain::gpu(0), 100.0))
            .clock(crate::clock::ManualClock::new())
            .build();
        meter.measure("x", || ()).unwrap();
        meter.measure("x", || ()).unwrap();
        let report = meter.report();
        assert_eq!(report.records.len(), 2);
        assert_eq!(RankReport::from_csv(&report.to_csv()).unwrap(), report);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(RankReport::from_csv("").is_err());
        assert!(RankReport::from_csv("wrong,header\n1,2").is_err());
        let bad_row = "label,rank,hostname,iteration,start_s,end_s,domain,energy_j\nfoo,notanumber,h,,0,1,gpu:0,5\n";
        assert!(RankReport::from_csv(bad_row).is_err());
    }

    #[test]
    fn csv_rejects_a_row_of_another_rank_or_host() {
        let records = vec![
            record("XMass", 0.0, 1.0, 10.0, 2.0),
            record("MomentumEnergy", 1.0, 3.0, 50.0, 4.0),
        ];
        let report = report(3, "nid001234", records);
        let csv = report.to_csv();
        let last_row = csv.lines().last().unwrap();
        for other in [
            last_row.replacen(",3,nid001234,", ",4,nid001234,", 1),
            last_row.replacen(",3,nid001234,", ",3,nid001235,", 1),
        ] {
            let mixed = csv.replacen(last_row, &other, 1);
            assert_ne!(mixed, csv);
            let err = RankReport::from_csv(&mixed).unwrap_err();
            assert!(matches!(err, PmtError::Parse { .. }), "{err}");
        }
        assert_eq!(RankReport::from_csv(&csv).unwrap(), report);
    }

    #[test]
    fn file_round_trip() {
        let report = report(3, "nid000001", vec![record("Gravity", 2.0, 4.0, 33.0, 3.0)]);
        let path = std::env::temp_dir().join(format!("pmt-report-{}.csv", std::process::id()));
        report.write_csv(&path).unwrap();
        let parsed = RankReport::read_csv(&path).unwrap();
        assert_eq!(parsed, report);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn total_by_domain_sums_records() {
        let records = vec![record("a", 0.0, 1.0, 10.0, 1.0), record("b", 1.0, 2.0, 20.0, 2.0)];
        let report = report(0, "h", records);
        let totals = report.total_by_domain();
        assert!((totals[&Domain::gpu(0)] - 30.0).abs() < 1e-12);
        assert!((totals[&Domain::cpu(0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_groups_by_label_preserving_order() {
        let records = vec![
            record("XMass", 0.0, 1.0, 10.0, 1.0),
            record("MomentumEnergy", 1.0, 2.0, 30.0, 2.0),
            record("XMass", 2.0, 3.0, 12.0, 1.5),
        ];
        let aggs = aggregate_by_label(&records);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].label, "XMass");
        assert_eq!(aggs[0].calls, 2);
        assert!((aggs[0].energy_by_kind(DomainKind::Gpu) - 22.0).abs() < 1e-12);
        assert!((aggs[0].total_time_s - 2.0).abs() < 1e-12);
        assert_eq!(aggs[1].label, "MomentumEnergy");
        assert!(aggs[1].edp() > 0.0);
    }
}
