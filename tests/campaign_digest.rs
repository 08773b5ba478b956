//! Bit-for-bit pins of the region path from sensor to record.
//!
//! One FNV-1a digest per campaign over **every** field of **every** record of
//! every rank, plus the Slurm and ground-truth numbers derived beside them,
//! and the exact CSV text and wire bytes a report leaves the process as. A
//! record holds no rank of its own, so each record mixes its report's rank,
//! as the CSV rows and the wire frame write it. A change to the meter, the
//! sensors or the record type must hold all of them in debug and release; a
//! digest that is *meant* to move is re-captured at the parent commit first.

mod common;

use common::Fnv;
use energy_aware_sim::comm::{Wire, WireReader};
use energy_aware_sim::experiments::{campaign, reduced_minihpc_config, run_governed_edp_campaign, CampaignResult};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::pmt::RankReport;
use energy_aware_sim::sphsim::{scenario, DistributedRankReport, Scenario};

fn get(name: &str) -> &'static Scenario {
    scenario::get(name).expect("built-in scenario")
}

fn mix_str(fnv: &mut Fnv, s: &str) {
    fnv.mix(s.len() as u64);
    for b in s.bytes() {
        fnv.mix(u64::from(b));
    }
}

fn mix_report(fnv: &mut Fnv, report: &RankReport) {
    fnv.mix(u64::from(report.rank));
    mix_str(fnv, &report.hostname);
    fnv.mix(report.records.len() as u64);
    for r in &report.records {
        mix_str(fnv, &r.label);
        fnv.mix(u64::from(report.rank));
        fnv.mix(r.iteration.map_or(0, |i| i + 1));
        fnv.mix(r.start_s.to_bits());
        fnv.mix(r.end_s.to_bits());
        fnv.mix(r.energy_j.len() as u64);
        for (domain, joules) in &r.energy_j {
            fnv.mix(domain.kind as u64);
            fnv.mix(u64::from(domain.index));
            fnv.mix(joules.to_bits());
        }
    }
}

fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut fnv = Fnv::new();
    fnv.mix(result.rank_reports.len() as u64);
    for report in &result.rank_reports {
        mix_report(&mut fnv, report);
    }
    fnv.mix(result.sacct.consumed_energy_j.to_bits());
    fnv.mix(result.main_loop_window.0.to_bits());
    fnv.mix(result.main_loop_window.1.to_bits());
    fnv.mix(result.true_main_loop_energy_j.to_bits());
    fnv.mix(result.total_meter_polls);
    fnv.0
}

#[test]
fn lumi_turb_16_ranks_digest_is_pinned() {
    let result = campaign(SystemKind::LumiG, get("Turb"), 16, 20);
    assert_eq!(
        result.rank_reports.iter().map(|r| r.records.len()).sum::<usize>(),
        16 * (20 * 11 + 1)
    );
    assert_eq!(
        campaign_digest(&result),
        8306320113876442696,
        "LUMI-G Turb 16 ranks x 20 steps"
    );
}

#[test]
fn cscs_a100_evr_8_ranks_digest_is_pinned() {
    let result = campaign(SystemKind::CscsA100, get("Evr"), 8, 20);
    assert_eq!(
        campaign_digest(&result),
        1314865204441543789,
        "CSCS-A100 Evr 8 ranks x 20 steps"
    );
}

#[test]
fn governed_minihpc_turb_digest_is_pinned() {
    let (governor, result) = run_governed_edp_campaign(&reduced_minihpc_config(get("Turb"), 20));
    let mut fnv = Fnv::new();
    fnv.mix(campaign_digest(&result));
    fnv.mix(governor.frequency_changes() as u64);
    let requested = governor.requested_frequencies();
    fnv.mix(requested.len() as u64);
    for f in requested {
        fnv.mix(f.to_bits());
    }
    assert_eq!(fnv.0, 9894540081294145342, "governed miniHPC Turb 2 ranks x 20 steps");
}

/// One timestep on two miniHPC ranks: small enough to pin as text.
fn small_report() -> RankReport {
    let mut result = campaign(SystemKind::MiniHpc, get("Turb"), 2, 1);
    result.rank_reports.swap_remove(1)
}

#[test]
fn csv_text_of_a_rank_report_is_pinned() {
    let report = small_report();
    assert_eq!(report.to_csv(), EXPECTED_CSV);
    let parsed = RankReport::from_csv(EXPECTED_CSV).expect("the pinned text parses");
    assert_eq!(
        parsed.to_csv(),
        EXPECTED_CSV,
        "parse → print is the identity on the text"
    );
}

#[test]
fn wire_bytes_of_a_distributed_rank_report_are_pinned() {
    let report = small_report();
    let csv = report.to_csv();
    let payload = DistributedRankReport {
        rank: report.rank,
        hostname: report.hostname.clone(),
        owned: 1234,
        ghosts: 56,
        report,
    };
    let mut bytes = Vec::new();
    payload.encode(&mut bytes);
    let mut fnv = Fnv::new();
    for b in &bytes {
        fnv.mix(u64::from(*b));
    }
    assert_eq!(
        (bytes.len(), fnv.0),
        (2152, 12330720566785872986),
        "encoded DistributedRankReport"
    );

    let mut reader = WireReader::new(&bytes);
    let decoded = DistributedRankReport::decode(&mut reader).expect("own bytes decode");
    assert_eq!((decoded.rank, decoded.owned, decoded.ghosts), (1, 1234, 56));
    assert_eq!(decoded.report.to_csv(), csv);
    let mut again = Vec::new();
    decoded.encode(&mut again);
    assert_eq!(again, bytes, "decode → encode is the identity on the bytes");
}

const EXPECTED_CSV: &str = "\
label,rank,hostname,iteration,start_s,end_s,domain,energy_j
DomainDecompAndSync,1,nid000001,0,90.000000000,90.519901130,node:0,494.962772
DomainDecompAndSync,1,nid000001,0,90.000000000,90.519901130,cpu:0,103.980226
DomainDecompAndSync,1,nid000001,0,90.000000000,90.519901130,gpu_card:0,129.975282
DomainDecompAndSync,1,nid000001,0,90.000000000,90.519901130,gpu_card:1,129.975282
DomainDecompAndSync,1,nid000001,0,90.000000000,90.519901130,mem:0,39.382511
FindNeighbors,1,nid000001,0,90.519901130,90.832386610,node:0,262.137819
FindNeighbors,1,nid000001,0,90.519901130,90.832386610,cpu:0,39.998141
FindNeighbors,1,nid000001,0,90.519901130,90.832386610,gpu_card:0,78.121370
FindNeighbors,1,nid000001,0,90.519901130,90.832386610,gpu_card:1,78.121370
FindNeighbors,1,nid000001,0,90.519901130,90.832386610,mem:0,20.155313
XMass,1,nid000001,0,90.832386610,91.220978727,node:0,325.982155
XMass,1,nid000001,0,90.832386610,91.220978727,cpu:0,49.739791
XMass,1,nid000001,0,90.832386610,91.220978727,gpu_card:0,97.148029
XMass,1,nid000001,0,90.832386610,91.220978727,gpu_card:1,97.148029
XMass,1,nid000001,0,90.832386610,91.220978727,mem:0,25.064192
NormalizationGradh,1,nid000001,0,91.220978727,91.508556235,node:0,241.243020
NormalizationGradh,1,nid000001,0,91.220978727,91.508556235,cpu:0,36.809921
NormalizationGradh,1,nid000001,0,91.220978727,91.508556235,gpu_card:0,71.894377
NormalizationGradh,1,nid000001,0,91.220978727,91.508556235,gpu_card:1,71.894377
NormalizationGradh,1,nid000001,0,91.220978727,91.508556235,mem:0,18.548749
EquationOfState,1,nid000001,0,91.508556235,91.524952092,node:0,13.754156
EquationOfState,1,nid000001,0,91.508556235,91.524952092,cpu:0,2.098670
EquationOfState,1,nid000001,0,91.508556235,91.524952092,gpu_card:0,4.098964
EquationOfState,1,nid000001,0,91.508556235,91.524952092,gpu_card:1,4.098964
EquationOfState,1,nid000001,0,91.508556235,91.524952092,mem:0,1.057533
IADVelocityDivCurl,1,nid000001,0,91.524952092,92.048602715,node:0,439.280035
IADVelocityDivCurl,1,nid000001,0,91.524952092,92.048602715,cpu:0,67.027280
IADVelocityDivCurl,1,nid000001,0,91.524952092,92.048602715,gpu_card:0,130.912656
IADVelocityDivCurl,1,nid000001,0,91.524952092,92.048602715,gpu_card:1,130.912656
IADVelocityDivCurl,1,nid000001,0,91.524952092,92.048602715,mem:0,33.775465
AVSwitches,1,nid000001,0,92.048602715,92.143432597,node:0,79.550891
AVSwitches,1,nid000001,0,92.048602715,92.143432597,cpu:0,12.138225
AVSwitches,1,nid000001,0,92.048602715,92.143432597,gpu_card:0,23.707470
AVSwitches,1,nid000001,0,92.048602715,92.143432597,gpu_card:1,23.707470
AVSwitches,1,nid000001,0,92.048602715,92.143432597,mem:0,6.116527
MomentumEnergy,1,nid000001,0,92.143432597,92.826866835,node:0,573.319314
MomentumEnergy,1,nid000001,0,92.143432597,92.826866835,cpu:0,87.479582
MomentumEnergy,1,nid000001,0,92.143432597,92.826866835,gpu_card:0,170.858560
MomentumEnergy,1,nid000001,0,92.143432597,92.826866835,gpu_card:1,170.858560
MomentumEnergy,1,nid000001,0,92.143432597,92.826866835,mem:0,44.081508
Turbulence,1,nid000001,0,92.826866835,92.894385289,node:0,56.639881
Turbulence,1,nid000001,0,92.826866835,92.894385289,cpu:0,8.642362
Turbulence,1,nid000001,0,92.826866835,92.894385289,gpu_card:0,16.879613
Turbulence,1,nid000001,0,92.826866835,92.894385289,gpu_card:1,16.879613
Turbulence,1,nid000001,0,92.826866835,92.894385289,mem:0,4.354940
Timestep,1,nid000001,0,92.894385289,92.912946161,node:0,17.670553
Timestep,1,nid000001,0,92.894385289,92.912946161,cpu:0,3.712174
Timestep,1,nid000001,0,92.894385289,92.912946161,gpu_card:0,4.640218
Timestep,1,nid000001,0,92.894385289,92.912946161,gpu_card:1,4.640218
Timestep,1,nid000001,0,92.894385289,92.912946161,mem:0,1.405986
UpdateQuantities,1,nid000001,0,92.912946161,93.014984377,node:0,85.597819
UpdateQuantities,1,nid000001,0,92.912946161,93.014984377,cpu:0,13.060892
UpdateQuantities,1,nid000001,0,92.912946161,93.014984377,gpu_card:0,25.509554
UpdateQuantities,1,nid000001,0,92.912946161,93.014984377,gpu_card:1,25.509554
UpdateQuantities,1,nid000001,0,92.912946161,93.014984377,mem:0,6.581465
TimeSteppingLoop,1,nid000001,,90.000000000,93.014984377,node:0,2590.138416
TimeSteppingLoop,1,nid000001,,90.000000000,93.014984377,cpu:0,424.687264
TimeSteppingLoop,1,nid000001,,90.000000000,93.014984377,gpu_card:0,753.746094
TimeSteppingLoop,1,nid000001,,90.000000000,93.014984377,gpu_card:1,753.746094
TimeSteppingLoop,1,nid000001,,90.000000000,93.014984377,mem:0,200.524190
";
