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
//! A production run closes millions of regions, so a record owns no heap
//! memory of its own in the common case: its [`Label`] is a reference to the
//! one allocation its meter made for that label, and its per-domain joules are
//! a flat [`DomainEnergies`] sequence stored inline.
//!
//! That sequence is kept in [`Domain`] `Ord` order (node, CPU packages, GPU
//! dies, GPU cards, memory, other — each by index) and every consumer iterates
//! it in that order: `energy_by_kind`, `total_device_energy_j`,
//! [`RankReport::total_by_domain`], a `values().sum()`, the rows of the CSV and
//! the pairs on the wire. Floating-point addition does not associate, so the
//! order *is* part of every published sum; nothing may reorder it.

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
}

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

/// How many domains a record holds without a heap allocation: a LUMI-G node
/// read through `pm_counters` has 7 (node, CPU, memory, four cards), a
/// per-die GPU back-end 8.
const INLINE_DOMAINS: usize = 8;

/// The joules one record attributes to each measurement domain: a flat
/// sequence of `(domain, joules)` sorted by [`Domain`], read like the
/// `BTreeMap<Domain, f64>` it replaces (`get`, `iter`, `values`, `len`, `for
/// (domain, joules) in &energies`, `collect()`), in the same order.
///
/// Up to eight domains live inside the value itself; a meter with more spills
/// that record's sequence to the heap.
#[derive(Clone)]
pub struct DomainEnergies(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        slots: [(Domain, f64); INLINE_DOMAINS],
    },
    Heap(Vec<(Domain, f64)>),
}

impl DomainEnergies {
    /// An empty sequence.
    pub fn new() -> Self {
        Self(Repr::Inline {
            len: 0,
            slots: [(Domain::node(), 0.0); INLINE_DOMAINS],
        })
    }

    /// The `(domain, joules)` entries in [`Domain`] order.
    fn as_slice(&self) -> &[(Domain, f64)] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Heap(entries) => entries,
        }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if no domain was measured.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Joules of `domain`, if it was measured.
    fn get(&self, domain: &Domain) -> Option<&f64> {
        let entries = self.as_slice();
        let at = entries.binary_search_by_key(domain, |(d, _)| *d).ok()?;
        Some(&entries[at].1)
    }

    /// Set the joules of `domain`, keeping the sequence sorted; returns the
    /// value it replaced.
    pub fn insert(&mut self, domain: Domain, joules: f64) -> Option<f64> {
        let at = match self.as_slice().binary_search_by_key(&domain, |(d, _)| *d) {
            Ok(at) => return Some(std::mem::replace(&mut self.as_mut_slice()[at].1, joules)),
            Err(at) => at,
        };
        match &mut self.0 {
            Repr::Inline { len, slots } if usize::from(*len) < INLINE_DOMAINS => {
                let used = usize::from(*len);
                slots.copy_within(at..used, at + 1);
                slots[at] = (domain, joules);
                *len += 1;
            }
            Repr::Inline { slots, .. } => {
                let mut entries = Vec::with_capacity(2 * INLINE_DOMAINS);
                entries.extend_from_slice(slots);
                entries.insert(at, (domain, joules));
                self.0 = Repr::Heap(entries);
            }
            Repr::Heap(entries) => entries.insert(at, (domain, joules)),
        }
        None
    }

    fn as_mut_slice(&mut self) -> &mut [(Domain, f64)] {
        match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Repr::Heap(entries) => entries,
        }
    }

    /// `(domain, joules)` pairs in [`Domain`] order.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The joules alone, in [`Domain`] order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &f64> + '_ {
        self.as_slice().iter().map(|(_, joules)| joules)
    }
}

impl Default for DomainEnergies {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for DomainEnergies {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for DomainEnergies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(Domain, f64)> for DomainEnergies {
    fn from_iter<I: IntoIterator<Item = (Domain, f64)>>(iter: I) -> Self {
        let mut out = Self::new();
        for (domain, joules) in iter {
            out.insert(domain, joules);
        }
        out
    }
}

impl<'a> IntoIterator for &'a DomainEnergies {
    type Item = (&'a Domain, &'a f64);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (Domain, f64)>, fn(&'a (Domain, f64)) -> Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().map(|(domain, joules)| (domain, joules))
    }
}

/// The result of measuring one instrumented region (one function call, one
/// timestep, or the whole time-stepping loop) on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasurementRecord {
    /// Region label, e.g. `"MomentumEnergy"`.
    pub label: Label,
    /// MPI rank that produced the record.
    pub rank: u32,
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

    /// Total energy across all domains in joules.
    ///
    /// Note: when a sensor reports both node-level and per-device domains, the
    /// node-level value already contains the devices; analysis code should pick
    /// the appropriate domains instead of blindly summing. This helper excludes
    /// the node domain for that reason.
    fn total_device_energy_j(&self) -> f64 {
        self.energy_j
            .iter()
            .filter(|(d, _)| d.kind != DomainKind::Node)
            .map(|(_, e)| e)
            .sum()
    }

    /// Energy of a specific domain, 0.0 if absent.
    pub fn energy(&self, domain: Domain) -> f64 {
        self.energy_j.get(&domain).copied().unwrap_or(0.0)
    }

    /// Sum of the energy of all domains of a given kind.
    pub fn energy_by_kind(&self, kind: DomainKind) -> f64 {
        self.energy_j.iter().filter(|(d, _)| d.kind == kind).map(|(_, e)| e).sum()
    }

    /// Energy-delay product of this record (total device energy × duration), in J·s.
    #[cfg_attr(not(test), expect(dead_code, reason = "the record tests hold EDP and device total"))]
    fn edp(&self) -> f64 {
        self.total_device_energy_j() * self.duration_s()
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
    pub records: Vec<MeasurementRecord>,
}

impl RankReport {
    /// Create an empty report for a rank.
    pub fn new(rank: u32, hostname: impl Into<String>) -> Self {
        Self {
            rank,
            hostname: hostname.into(),
            records: Vec::new(),
        }
    }

    /// Serialise to CSV with columns
    /// `label,rank,hostname,iteration,start_s,end_s,domain,energy_j`
    /// (one row per record × domain).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label,rank,hostname,iteration,start_s,end_s,domain,energy_j\n");
        for r in &self.records {
            for (domain, energy) in &r.energy_j {
                let iter_str = r.iteration.map(|i| i.to_string()).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:.9},{:.9},{},{:.6}",
                    r.label, r.rank, self.hostname, iter_str, r.start_s, r.end_s, domain, energy
                );
            }
        }
        out
    }

    /// Parse a report back from the CSV produced by [`RankReport::to_csv`].
    pub fn from_csv(csv: &str) -> Result<Self> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or_else(|| PmtError::parse("rank report CSV", "empty input"))?;
        if !header.starts_with("label,rank,hostname") {
            return Err(PmtError::parse("rank report CSV header", header));
        }
        let mut report = RankReport::default();
        let mut current: Option<MeasurementRecord> = None;
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
            let hostname = fields[2].to_string();
            let iteration = if fields[3].is_empty() {
                None
            } else {
                Some(fields[3].parse().map_err(|_| PmtError::parse("iteration", line))?)
            };
            let start_s: f64 = fields[4].parse().map_err(|_| PmtError::parse("start_s", line))?;
            let end_s: f64 = fields[5].parse().map_err(|_| PmtError::parse("end_s", line))?;
            let domain: Domain = fields[6].parse().map_err(|e| PmtError::parse("domain", e))?;
            let energy: f64 = fields[7].parse().map_err(|_| PmtError::parse("energy_j", line))?;

            report.rank = rank;
            report.hostname = hostname;

            // A row continues the current record unless its domain is already
            // there: two back-to-back regions of one label on a clock that did
            // not move share every other column.
            let same_record = current.as_ref().is_some_and(|c| {
                c.label == label
                    && c.start_s == start_s
                    && c.end_s == end_s
                    && c.iteration == iteration
                    && c.energy_j.get(&domain).is_none()
            });
            if !same_record {
                if let Some(done) = current.take() {
                    report.records.push(done);
                }
                current = Some(MeasurementRecord {
                    label: Label::from(label),
                    rank,
                    iteration,
                    start_s,
                    end_s,
                    energy_j: DomainEnergies::new(),
                });
            }
            current.as_mut().unwrap().energy_j.insert(domain, energy);
        }
        if let Some(done) = current.take() {
            report.records.push(done);
        }
        Ok(report)
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

    /// Total non-node energy in joules.
    fn total_device_energy_j(&self) -> f64 {
        self.energy_j
            .iter()
            .filter(|(d, _)| d.kind != DomainKind::Node)
            .map(|(_, e)| e)
            .sum()
    }

    /// Energy-delay product (total device energy × summed duration) in J·s.
    #[cfg_attr(not(test), expect(dead_code, reason = "the aggregate tests hold EDP and total"))]
    fn edp(&self) -> f64 {
        self.total_device_energy_j() * self.total_time_s
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

    fn record(label: &str, start: f64, end: f64, gpu: f64, cpu: f64) -> MeasurementRecord {
        let mut energy = DomainEnergies::new();
        energy.insert(Domain::gpu(0), gpu);
        energy.insert(Domain::cpu(0), cpu);
        MeasurementRecord {
            label: label.into(),
            rank: 3,
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
        let pairs: Vec<(Domain, f64)> = (&appended).into_iter().map(|(d, j)| (*d, *j)).collect();
        assert_eq!(pairs, appended.as_slice());
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
    fn a_campaign_record_owns_no_heap_memory() {
        // The widest record a campaign writes: a LUMI-G node through
        // pm_counters. Its energies must fit inline, in a record that stays
        // within three cache lines.
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
        assert!(matches!(energies.0, Repr::Inline { len: 7, .. }));
        assert!(std::mem::size_of::<MeasurementRecord>() <= 192);
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
        let mut report = RankReport::new(3, "nid001234");
        report.records.push(record("XMass", 0.0, 1.0, 10.0, 2.0));
        report.records.push(record("MomentumEnergy", 1.0, 3.0, 50.0, 4.0));
        let csv = report.to_csv();
        let parsed = RankReport::from_csv(&csv).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn csv_round_trip_without_iteration() {
        let mut report = RankReport::new(0, "host");
        let mut r = record("total", 0.0, 10.0, 100.0, 10.0);
        r.iteration = None;
        r.rank = 0;
        report.records.push(r);
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
    fn file_round_trip() {
        let mut report = RankReport::new(3, "nid000001");
        report.records.push(record("Gravity", 2.0, 4.0, 33.0, 3.0));
        let path = std::env::temp_dir().join(format!("pmt-report-{}.csv", std::process::id()));
        report.write_csv(&path).unwrap();
        let parsed = RankReport::read_csv(&path).unwrap();
        assert_eq!(parsed, report);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn total_by_domain_sums_records() {
        let mut report = RankReport::new(0, "h");
        report.records.push(record("a", 0.0, 1.0, 10.0, 1.0));
        report.records.push(record("b", 1.0, 2.0, 20.0, 2.0));
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
