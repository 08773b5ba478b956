//! Virtual sysfs provider.
//!
//! Real power-measurement back-ends read kernel-exported files:
//!
//! * Intel RAPL via the `powercap` framework:
//!   `/sys/class/powercap/intel-rapl:<pkg>/energy_uj` (cumulative microjoules,
//!   wrapping at `max_energy_range_uj`), with a `intel-rapl:<pkg>:0` sub-domain
//!   named `dram`;
//! * HPE/Cray `pm_counters`:
//!   `/sys/cray/pm_counters/{power,energy,cpu_power,cpu_energy,memory_power,
//!   memory_energy,accelN_power,accelN_energy}` with values formatted as
//!   `"<value> W <timestamp> us"` / `"<value> J <timestamp> us"`.
//!
//! [`VirtualSysfs`] materialises both trees under a caller-chosen root directory
//! from the live counters of a simulated [`Node`], using **exactly** those file
//! formats. The `pmt` crate's file-based back-ends therefore exercise the same
//! parsing code they would use against a real `/sys`.

use crate::clock::SimClock;
use crate::node::Node;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Maximum value of the RAPL `energy_uj` counter before it wraps (the common
/// value exposed by production Intel/AMD firmwares).
const RAPL_MAX_ENERGY_RANGE_UJ: u64 = 262_143_328_850;

/// Materialises powercap/RAPL and Cray `pm_counters` file trees for one node.
pub struct VirtualSysfs {
    root: PathBuf,
    node: Node,
    clock: SimClock,
}

impl VirtualSysfs {
    /// Create a provider rooted at `root` for `node`, stamping files with times
    /// from `clock`. The directory is created on [`VirtualSysfs::materialize`].
    pub fn new(root: impl Into<PathBuf>, node: Node, clock: SimClock) -> Self {
        Self {
            root: root.into(),
            node,
            clock,
        }
    }

    /// Directory containing the `intel-rapl:*` powercap domains.
    pub fn powercap_root(&self) -> PathBuf {
        self.root.join("class/powercap")
    }

    /// Directory containing the Cray `pm_counters` files.
    pub fn pm_counters_root(&self) -> PathBuf {
        self.root.join("cray/pm_counters")
    }

    /// Create the directory structure and static files, then write a first set of
    /// dynamic values.
    // sphlint::allow(dead-pub, builds the sysfs tree the file back-end tests read)
    pub fn materialize(&self) -> io::Result<()> {
        let pcap = self.powercap_root();
        for i in 0..self.node.spec().cpus.len() {
            let pkg = pcap.join(format!("intel-rapl:{i}"));
            fs::create_dir_all(&pkg)?;
            fs::write(pkg.join("name"), format!("package-{i}\n"))?;
            fs::write(pkg.join("max_energy_range_uj"), format!("{RAPL_MAX_ENERGY_RANGE_UJ}\n"))?;
            // DRAM sub-domain lives under the first package, as on typical servers.
            if i == 0 {
                let dram = pcap.join(format!("intel-rapl:{i}:0"));
                fs::create_dir_all(&dram)?;
                fs::write(dram.join("name"), "dram\n")?;
                fs::write(
                    dram.join("max_energy_range_uj"),
                    format!("{RAPL_MAX_ENERGY_RANGE_UJ}\n"),
                )?;
            }
        }

        let pm = self.pm_counters_root();
        fs::create_dir_all(&pm)?;
        fs::write(pm.join("version"), "2\n")?;
        fs::write(pm.join("generation"), "1\n")?;
        fs::write(pm.join("startup"), format!("{}\n", self.timestamp_us()))?;
        fs::write(pm.join("raw_scan_hz"), "10\n")?;

        self.refresh()
    }

    /// Rewrite every dynamic file from the node's current counters.
    pub fn refresh(&self) -> io::Result<()> {
        self.refresh_powercap()?;
        self.refresh_pm_counters()
    }

    fn timestamp_us(&self) -> u64 {
        (self.clock.now() * 1.0e6).round() as u64
    }

    fn refresh_powercap(&self) -> io::Result<()> {
        let pcap = self.powercap_root();
        // One reading of the node, taken before any file is written.
        let (packages_j, dram_j) = {
            let r = self.node.read();
            let packages_j: Vec<f64> = (0..self.node.spec().cpus.len()).map(|i| r.cpu(i).1).collect();
            (packages_j, r.memory().1)
        };
        for (i, joules) in packages_j.into_iter().enumerate() {
            let pkg = pcap.join(format!("intel-rapl:{i}"));
            let uj = (joules * 1.0e6) as u64 % RAPL_MAX_ENERGY_RANGE_UJ;
            fs::write(pkg.join("energy_uj"), format!("{uj}\n"))?;
            if i == 0 {
                let dram = pcap.join(format!("intel-rapl:{i}:0"));
                let dram_uj = (dram_j * 1.0e6) as u64 % RAPL_MAX_ENERGY_RANGE_UJ;
                fs::write(dram.join("energy_uj"), format!("{dram_uj}\n"))?;
            }
        }
        Ok(())
    }

    fn refresh_pm_counters(&self) -> io::Result<()> {
        let pm = self.pm_counters_root();
        let ts = self.timestamp_us();
        // One reading of the node, taken before any file is written.
        let (node, cpus, memory, cards) = {
            let r = self.node.read();
            let cards: Vec<(f64, f64)> = (0..self.node.spec().gpu_cards()).map(|k| r.card(k)).collect();
            (r.node(), r.cpus(), r.memory(), cards)
        };
        // `<prefix>power` holds "<watts> W <ts> us", `<prefix>energy` "<joules> J <ts> us".
        let write = |prefix: &str, (watts, joules): (f64, f64)| -> io::Result<()> {
            fs::write(
                pm.join(format!("{prefix}power")),
                format!("{} W {ts} us\n", watts.round() as u64),
            )?;
            fs::write(
                pm.join(format!("{prefix}energy")),
                format!("{} J {ts} us\n", joules.round() as u64),
            )
        };

        // Node-level counters (what Slurm's pm_counters plugin consumes).
        write("", node)?;

        // CPU package counters.
        write("cpu_", cpus)?;

        // Memory counters only exist on platforms with a memory sensor (LUMI-G).
        if self.node.spec().has_memory_sensor {
            write("memory_", memory)?;
        }

        // Accelerator counters are reported per physical card (not per die!):
        // on MI250X one file covers two GCDs — the measurement quirk discussed in
        // the paper's §2 and §3.1.
        for (card, reading) in cards.into_iter().enumerate() {
            write(&format!("accel{card}_"), reading)?;
        }

        fs::write(pm.join("freshness"), format!("{ts}\n"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hwmodel-sysfs-{tag}-{}-{}",
            std::process::id(),
            // sphlint::allow(float-determinism, temp-dir uniquifier; value never reaches an assertion)
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn materialize_creates_expected_layout() {
        let dir = tempdir("layout");
        let clock = SimClock::new();
        let node = arch::lumi_g().build();
        let sysfs = VirtualSysfs::new(&dir, node, clock);
        sysfs.materialize().unwrap();

        assert!(sysfs.powercap_root().join("intel-rapl:0/energy_uj").exists());
        assert!(sysfs.powercap_root().join("intel-rapl:0:0/name").exists());
        let pm = sysfs.pm_counters_root();
        assert!(pm.join("power").exists());
        assert!(pm.join("energy").exists());
        assert!(pm.join("cpu_power").exists());
        assert!(pm.join("memory_energy").exists());
        // 4 physical cards -> accel0..accel3.
        assert!(pm.join("accel0_power").exists());
        assert!(pm.join("accel3_energy").exists());
        assert!(!pm.join("accel4_power").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cscs_tree_has_no_memory_counters() {
        let dir = tempdir("cscs");
        let clock = SimClock::new();
        let node = arch::cscs_a100().build();
        let sysfs = VirtualSysfs::new(&dir, node, clock);
        sysfs.materialize().unwrap();
        assert!(!sysfs.pm_counters_root().join("memory_power").exists());
        assert!(sysfs.pm_counters_root().join("accel3_power").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pm_counters_format_is_value_unit_timestamp() {
        let dir = tempdir("format");
        let clock = SimClock::new();
        clock.advance(12.5);
        let node = arch::cscs_a100().build();
        let sysfs = VirtualSysfs::new(&dir, node, clock);
        sysfs.materialize().unwrap();
        let content = fs::read_to_string(sysfs.pm_counters_root().join("power")).unwrap();
        let parts: Vec<&str> = content.split_whitespace().collect();
        assert_eq!(parts.len(), 4, "expected '<value> W <ts> us', got {content:?}");
        assert_eq!(parts[1], "W");
        assert_eq!(parts[3], "us");
        assert_eq!(parts[2].parse::<u64>().unwrap(), 12_500_000);
        assert!(parts[0].parse::<u64>().unwrap() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_tracks_energy_growth() {
        let dir = tempdir("refresh");
        let clock = SimClock::new();
        let node = arch::mini_hpc().build();
        let sysfs = VirtualSysfs::new(&dir, node.clone(), clock.clone());
        sysfs.materialize().unwrap();

        let read_energy = |sysfs: &VirtualSysfs| -> u64 {
            let content = fs::read_to_string(sysfs.pm_counters_root().join("energy")).unwrap();
            content.split_whitespace().next().unwrap().parse().unwrap()
        };
        let e0 = read_energy(&sysfs);
        node.gpus()[0].set_load(1.0);
        node.advance(100.0);
        clock.advance(100.0);
        sysfs.refresh().unwrap();
        let e1 = read_energy(&sysfs);
        assert!(e1 > e0, "energy counter should grow: {e0} -> {e1}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rapl_counter_wraps_at_max_range() {
        let dir = tempdir("wrap");
        let clock = SimClock::new();
        let node = arch::mini_hpc().build();
        let sysfs = VirtualSysfs::new(&dir, node.clone(), clock);
        sysfs.materialize().unwrap();
        // Drive an absurd amount of energy through the CPU to force a wrap.
        node.set_host_load(1.0, 0.0, 0.0);
        node.advance(5.0e6); // ~10^9 J ~ 10^15 uJ >> max range
        sysfs.refresh().unwrap();
        let content = fs::read_to_string(sysfs.powercap_root().join("intel-rapl:0/energy_uj")).unwrap();
        let uj: u64 = content.trim().parse().unwrap();
        assert!(uj < RAPL_MAX_ENERGY_RANGE_UJ);
        fs::remove_dir_all(&dir).unwrap();
    }
}
