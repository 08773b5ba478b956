//! Scratch fixture: metric names off the documented grammar.

pub fn emit(t: &Telemetry) {
    t.counter("comm.gather.count", 1);
    t.gauge("memory", "rss_bytes", 1.0);
    t.histogram("step", "wall.seconds", 0.1);
    t.counter("comm.shm.gather.messages", 1);
}

pub fn name_for(rank: usize) -> String {
    format!("sim.rank{rank}.owned.bytes")
}
