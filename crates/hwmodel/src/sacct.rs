//! `sacct`-style job accounting records.
//!
//! After a job completes, the paper's users would run
//! `sacct -j <id> --format=JobID,Elapsed,ConsumedEnergy` to obtain the only
//! energy figure Slurm offers: one number for the whole job. [`SacctRecord`]
//! is that row.

use std::fmt;

/// One accounting row for a completed job.
#[derive(Clone, Debug, PartialEq)]
pub struct SacctRecord {
    /// Numeric job id.
    pub job_id: u64,
    /// Job name.
    pub job_name: String,
    /// Number of nodes allocated.
    pub n_nodes: usize,
    /// Wall-clock (simulated) duration from submission to completion, seconds.
    pub elapsed_s: f64,
    /// Total consumed energy reported by the energy-gathering plugin, joules.
    pub consumed_energy_j: f64,
    /// Final job state.
    pub state: String,
}

impl SacctRecord {
    /// Format the elapsed time like `sacct` does (`[DD-]HH:MM:SS`).
    fn elapsed_formatted(&self) -> String {
        let total = self.elapsed_s.round() as u64;
        let days = total / 86_400;
        let hours = (total % 86_400) / 3600;
        let minutes = (total % 3600) / 60;
        let seconds = total % 60;
        if days > 0 {
            format!("{days}-{hours:02}:{minutes:02}:{seconds:02}")
        } else {
            format!("{hours:02}:{minutes:02}:{seconds:02}")
        }
    }

    /// One pipe-separated `sacct` output line:
    /// `JobID|JobName|NNodes|Elapsed|ConsumedEnergy|State`.
    fn to_sacct_line(&self) -> String {
        format!(
            "{}|{}|{}|{}|{:.0}|{}",
            self.job_id,
            self.job_name,
            self.n_nodes,
            self.elapsed_formatted(),
            self.consumed_energy_j,
            self.state
        )
    }
}

impl fmt::Display for SacctRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sacct_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> SacctRecord {
        SacctRecord {
            job_id: 4242,
            job_name: "sphexa-turb".to_string(),
            n_nodes: 12,
            elapsed_s: 3723.0,
            consumed_energy_j: 24.4e6,
            state: "COMPLETED".to_string(),
        }
    }

    #[test]
    fn elapsed_formatting() {
        let mut r = record();
        assert_eq!(r.elapsed_formatted(), "01:02:03");
        r.elapsed_s = 90_061.0;
        assert_eq!(r.elapsed_formatted(), "1-01:01:01");
        r.elapsed_s = 59.0;
        assert_eq!(r.elapsed_formatted(), "00:00:59");
    }

    #[test]
    fn sacct_line_layout() {
        let line = record().to_sacct_line();
        assert_eq!(line, "4242|sphexa-turb|12|01:02:03|24400000|COMPLETED");
        assert_eq!(record().to_string(), line);
    }
}
