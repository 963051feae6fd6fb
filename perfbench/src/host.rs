//! Process and host counters read from `/proc`: process CPU time, peak
//! resident memory and the host's steal time.

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`), 100 on
/// every Linux architecture the benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has used, all threads, live and exited.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the fields after it are fixed.
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15; field 3 (state) is index 0 here.
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_S
}

/// Seconds the hypervisor has stolen from this host's CPUs, summed over
/// all CPUs (the `steal` column of the `cpu` line of `/proc/stat`).
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    steal / TICKS_PER_S
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and process counters over a window, for the noise record.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    cpu_s: f64,
    steal_s: f64,
}

impl Window {
    /// Starts a window now.
    pub fn start() -> Window {
        Window {
            cpu_s: process_cpu_s(),
            steal_s: host_steal_s(),
        }
    }

    /// `(process CPU seconds, host steal seconds)` since the start.
    pub fn elapsed(&self) -> (f64, f64) {
        (process_cpu_s() - self.cpu_s, host_steal_s() - self.steal_s)
    }
}

/// What one [`probe_ms`] takes on an undisturbed host, in ms. The
/// end-to-end times are scaled to this speed.
pub const PROBE_NOMINAL_MS: f64 = 1.0;

/// Runs an engine-independent probe of how fast the host runs this
/// process right now and returns its wall time in ms: a serial chain of
/// xorshift steps. A busy sibling hyperthread or a lower clock slows it
/// the way they slow the engine, while it touches no memory, so neither
/// the engine's working set nor its cache footprint can change what it
/// measures.
pub fn probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
