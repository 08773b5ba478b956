//! Running a whole world: one [`DistributedSimulation`] shard per rank on
//! plain threads, and the report a metered rank sends to rank 0 with the
//! codec of its PMT report.

use super::{DistributedSimulation, OverlapStats};
use crate::particle::ParticleSet;
use crate::propagator::StepSummary;
use crate::scenario::Scenario;
use comm::{TransportKind, Wire, WireError, WireReader};
use pmt::report::Label;
use pmt::{Domain, DomainEnergies, MeasurementRecord, RankReport};
use std::sync::Arc;
use telemetry::Telemetry;

/// One rank's final state from [`run_distributed`].
pub struct ShardResult {
    /// Rank id.
    pub rank: usize,
    /// Global construction-order id of each owned particle.
    pub ids: Vec<u32>,
    /// The rank's owned particles (no ghosts).
    pub particles: ParticleSet,
    /// Per-step global summaries (identical on every rank up to round-off).
    pub summaries: Vec<StepSummary>,
    /// How many splitter re-balances this rank observed.
    pub rebalances: u64,
    /// Ghost-exchange overlap accounting accumulated over the run.
    pub overlap: OverlapStats,
}

/// Drive one [`DistributedSimulation`] shard per rank on plain threads over
/// `transport` and return every rank's final shard — the hardware-free
/// physics path the decomposition/equivalence tests and the CI smoke gate run
/// through. `Socket` runs the identical rank threads over real Unix-socket
/// connections and the hand-rolled wire codec.
///
/// With a `sink`, the same one is attached to every rank: per-rank
/// `Step`/stage spans interleave into one totally ordered stream (the shared
/// sequence atomic), each rank publishes its communication totals at the end,
/// and the exporters are flushed once after the last rank joins.
pub fn run_distributed(
    scenario: &'static Scenario,
    n_ranks: usize,
    n_target: usize,
    seed: u64,
    steps: u64,
    transport: TransportKind,
    sink: Option<Arc<Telemetry>>,
) -> Vec<ShardResult> {
    let shards = comm::run_world(n_ranks, transport, |comm| {
        let rank = comm.rank();
        let mut sim = DistributedSimulation::from_scenario(comm, scenario, n_target, seed);
        if let Some(sink) = &sink {
            sim = sim.with_telemetry(Arc::clone(sink));
        }
        let summaries = sim.run(steps);
        sim.publish_comm_stats();
        let rebalances = sim.rebalance_count();
        let overlap = sim.overlap_stats();
        let (ids, particles) = sim.into_shard();
        ShardResult {
            rank,
            ids,
            particles,
            summaries,
            rebalances,
            overlap,
        }
    });
    if let Some(sink) = sink {
        sink.flush();
    }
    shards
}

/// One rank's gathered measurement, à la the paper's per-rank energy tables:
/// what a metered rank hands to `Comm::gather` at the end of a run.
pub struct DistributedRankReport {
    /// Rank id.
    pub rank: u32,
    /// Hostname of the node the rank ran on.
    pub hostname: String,
    /// Particles owned at the end of the run.
    pub owned: usize,
    /// Ghosts held at the end of the run.
    pub ghosts: usize,
    /// The rank's full PMT report (per-stage records).
    pub report: RankReport,
}

impl Wire for DistributedRankReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.hostname.encode(out);
        self.owned.encode(out);
        self.ghosts.encode(out);
        encode_report(&self.report, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            rank: Wire::decode(r)?,
            hostname: Wire::decode(r)?,
            owned: Wire::decode(r)?,
            ghosts: Wire::decode(r)?,
            report: decode_report(r)?,
        })
    }
    fn min_wire_size() -> usize {
        // Its own four fields, then the report's rank, hostname and count.
        4 + 8 + 8 + 8 + (4 + 8 + 8)
    }
}

/// The least a record of a [`RankReport`] occupies on the wire: label
/// length, rank, option tag, two `f64` and the energy count.
const RECORD_MIN_WIRE_SIZE: usize = 8 + 4 + 1 + 8 + 8 + 8;

/// Append a rank's report to `out`: rank, hostname, then its records as a
/// sequence. A record travels as its label, the report's rank, then its other
/// fields in declaration order; the energies as a sequence of
/// `(domain.to_string(), joules)` pairs in the record's own (`Domain`) order
/// — [`Domain`] round-trips exactly through its `Display`/`FromStr` pair.
pub fn encode_report(report: &RankReport, out: &mut Vec<u8>) {
    report.rank.encode(out);
    report.hostname.encode(out);
    report.records.len().encode(out);
    for record in &report.records {
        record.label.to_string().encode(out);
        report.rank.encode(out);
        record.iteration.encode(out);
        record.start_s.encode(out);
        record.end_s.encode(out);
        record.energy_j.len().encode(out);
        for (domain, joules) in &record.energy_j {
            (domain.to_string(), *joules).encode(out);
        }
    }
}

/// Decode one report written by [`encode_report`]. The records come out as
/// compact as the meter that closed them made them: a label decoded before
/// is shared, not allocated again, and a record whose domains are its
/// predecessor's holds the predecessor's domain list. A record of another
/// rank than its report is [`WireError::Malformed`].
pub fn decode_report(r: &mut WireReader<'_>) -> Result<RankReport, WireError> {
    let (rank, hostname) = Wire::decode(r)?;
    let len = r.seq_len(RECORD_MIN_WIRE_SIZE)?;
    let mut records: Vec<MeasurementRecord> = Vec::with_capacity(len);
    // The labels met so far, and the pairs of the record being decoded.
    let (mut labels, mut energies) = (Vec::new(), Vec::new());
    for _ in 0..len {
        let label = Label::intern(&mut labels, r.read_str()?);
        let (record_rank, iteration, start_s, end_s) = <(u32, _, _, _)>::decode(r)?;
        if record_rank != rank {
            return Err(WireError::Malformed("record of another rank than its report"));
        }
        energies.clear();
        for _ in 0..r.seq_len(<(String, f64)>::min_wire_size())? {
            let domain: Domain = r
                .read_str()?
                .parse()
                .map_err(|_| WireError::Malformed("bad measurement domain"))?;
            energies.push((domain, f64::decode(r)?));
        }
        let energy_j = DomainEnergies::collect_like(&energies, records.last().map(|prev| &prev.energy_j));
        records.push(MeasurementRecord {
            label,
            iteration,
            start_s,
            end_s,
            energy_j,
        });
    }
    Ok(RankReport {
        rank,
        hostname,
        records: records.into(),
    })
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// Deterministic xorshift64* — the vendored-shim stand-in for a property
    /// test generator.
    pub(in crate::distributed) struct Rng(pub(in crate::distributed) u64);

    impl Rng {
        pub(in crate::distributed) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        pub(in crate::distributed) fn f64(&mut self) -> f64 {
            // Arbitrary bit patterns, including NaNs/infinities/subnormals.
            f64::from_bits(self.next())
        }
        pub(in crate::distributed) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `buf` with one byte replaced, inserted or deleted.
    pub(in crate::distributed) fn mutate(rng: &mut Rng, buf: &[u8]) -> Vec<u8> {
        let mut out = buf.to_vec();
        let byte = rng.next() as u8;
        match rng.next() % 3 {
            0 => {
                let at = rng.below(out.len());
                out[at] = byte;
            }
            1 => {
                let at = rng.below(out.len() + 1);
                out.insert(at, byte);
            }
            _ => {
                let at = rng.below(out.len());
                out.remove(at);
            }
        }
        out
    }

    fn to_bytes(report: &RankReport) -> Vec<u8> {
        let mut out = Vec::new();
        encode_report(report, &mut out);
        out
    }

    /// A complete frame holding one report and nothing else.
    fn from_bytes(bytes: &[u8]) -> Result<RankReport, WireError> {
        let mut r = WireReader::new(bytes);
        let report = decode_report(&mut r)?;
        r.finish()?;
        Ok(report)
    }

    /// `report` decodes to itself, and every strict prefix of its encoding
    /// fails to decode.
    fn round_trip(report: &RankReport) {
        let bytes = to_bytes(report);
        assert_eq!(&from_bytes(&bytes).expect("round trip decodes"), report);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        let alphabet = ['g', 'p', 'u', ':', '0', '7', 'ö', 'ü', '→', ' '];
        (0..rng.below(9)).map(|_| alphabet[rng.below(alphabet.len())]).collect()
    }

    fn random_report(rng: &mut Rng) -> RankReport {
        let (rank, hostname) = (rng.next() as u32, random_string(rng));
        let mut records = Vec::new();
        for _ in 0..rng.below(4) {
            let mut energy_j = DomainEnergies::new();
            for _ in 0..rng.below(4) {
                let domain = [Domain::node(), Domain::cpu(0), Domain::gpu(1), Domain::memory()];
                energy_j.insert(domain[rng.below(domain.len())], rng.f64());
            }
            records.push(MeasurementRecord {
                label: random_string(rng).into(),
                iteration: (rng.below(2) == 0).then(|| rng.next()),
                start_s: rng.f64(),
                end_s: rng.f64(),
                energy_j,
            });
        }
        RankReport {
            rank,
            hostname,
            records: records.into(),
        }
    }

    /// Decoding is total on corrupt frames too: every mutation of a report's
    /// encoding decodes to a report or a [`WireError`], never a panic.
    #[test]
    fn mutated_frames_decode_to_a_value_or_a_wire_error() {
        let mut rng = Rng(0x5EED_F00D_0BAD_CAFE);
        for _ in 0..40 {
            let bytes = to_bytes(&random_report(&mut rng));
            assert!(from_bytes(&bytes).is_ok());
            for _ in 0..50 {
                let mutated = mutate(&mut rng, &bytes);
                let decoded = std::panic::catch_unwind(|| from_bytes(&mutated).is_ok());
                assert!(decoded.is_ok(), "a report panicked on {mutated:?}");
            }
        }
    }

    /// A report of rank 3 with two `"XMass"` records over `domains` GPU dies.
    fn dies_report(domains: u32) -> RankReport {
        let records = [0.0, 1.0].map(|start_s| MeasurementRecord {
            label: "XMass".into(),
            iteration: Some(7),
            start_s,
            end_s: start_s + 1.0,
            energy_j: (0..domains).map(|i| (Domain::gpu(i), f64::from(i) + 0.5)).collect(),
        });
        RankReport {
            rank: 3,
            hostname: "nid000003".into(),
            records: Vec::from(records).into(),
        }
    }

    #[test]
    fn eight_and_nine_domain_records_round_trip() {
        for domains in [8, 9] {
            let report = dies_report(domains);
            assert_eq!(report.records[0].energy_j.len(), domains as usize);
            round_trip(&report);
        }
    }

    #[test]
    fn a_decoded_report_owns_its_record_list() {
        let report = dies_report(2);
        let decoded = from_bytes(&to_bytes(&report)).unwrap();
        assert_eq!(decoded, report);
        assert_ne!(decoded.records.as_ptr(), report.records.as_ptr());
    }

    #[test]
    fn a_record_of_another_rank_than_its_report_is_malformed() {
        let report = dies_report(2);
        let mut buf = to_bytes(&report);
        // Past the report's rank, hostname and record count, and the first
        // record's label, comes that record's rank.
        let at = 4 + (8 + report.hostname.len()) + 8 + (8 + "XMass".len());
        assert_eq!(buf[at..at + 4], 3u32.to_le_bytes());
        buf[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            from_bytes(&buf),
            Err(WireError::Malformed("record of another rank than its report"))
        );
    }
}
