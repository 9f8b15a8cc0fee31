//! What the numbers were taken on: every committed `BENCH_*.json`
//! silently recorded a 1-CPU host, so each run states its own.

use skt_encoding::{CrcBackend, GfBackend, KernelConfig};

/// Environment knobs that change what the program under test does. A
/// single run records which are set; the all-workloads driver does not
/// pass them on to its children.
pub const KNOBS: [&str; 4] = [
    "SKT_KERNEL_THREADS",
    "SKT_KERNEL_CHUNK_LEN",
    "SKT_KERNEL_SIMD",
    "SKT_TRACE",
];

/// CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block printed with every run.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Per-CPU cache sizes in bytes, `(level+type, bytes)`, from sysfs.
    pub caches: Vec<(String, u64)>,
    pub kernel: KernelConfig,
    pub gf: GfBackend,
    pub crc: CrcBackend,
    /// `(name, value)` of each knob that is set.
    pub knobs: Vec<(&'static str, String)>,
}

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mul) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mul)
}

impl Host {
    pub fn detect() -> Host {
        let kernel = KernelConfig::global();
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            if let Some(bytes) = parse_size(&size) {
                let kind = kind.trim().chars().next().unwrap_or('?');
                caches.push((format!("L{}{kind}", level.trim()), bytes));
            }
        }
        Host {
            nproc: nproc(),
            caches,
            kernel,
            gf: GfBackend::select(kernel.simd),
            crc: CrcBackend::select(kernel.simd),
            knobs: KNOBS
                .iter()
                .filter_map(|k| std::env::var(k).ok().map(|v| (*k, v)))
                .collect(),
        }
    }

    /// One line for the human-readable report.
    pub fn line(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(n, b)| format!("{n}={}KiB", b >> 10))
            .collect();
        let knobs = if self.knobs.is_empty() {
            "unset".to_string()
        } else {
            format!("{:?}", self.knobs)
        };
        format!(
            "host: nproc={} caches[{}] kernel_threads={} chunk_len={} simd={:?} gf={:?} crc={:?} SKT_* knobs: {knobs}",
            self.nproc,
            caches.join(" "),
            self.kernel.threads,
            self.kernel.chunk_len,
            self.kernel.simd,
            self.gf,
            self.crc,
        )
    }
}

/// CPU time the hypervisor has taken from this VM so far (the `steal`
/// column of `/proc/stat`, all CPUs), in milliseconds; `0.0` where
/// `/proc` does not say. `USER_HZ` is 100 on every Linux ABI.
pub fn stolen_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// One timed operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Wall time, milliseconds.
    pub ms: f64,
    /// CPU time stolen from the VM meanwhile, milliseconds.
    pub stolen_ms: f64,
}

/// Run `f` and time it. The steal clock is read outside the timed
/// interval.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let stolen0 = stolen_ms();
    let t0 = std::time::Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let stolen_ms = stolen_ms() - stolen0;
    (out, Timed { ms, stolen_ms })
}

/// Peak resident set of this process so far (`VmHWM`), MiB; `0.0` where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("4096K"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }

    #[test]
    fn steal_is_the_eighth_column_of_the_aggregate_line() {
        let stat = "cpu  402801 0 225683 518474 2607 0 349 31187 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(31187));
        assert_eq!(
            parse_steal_ticks("cpu  1 2 3\n"),
            None,
            "old kernels have no steal column"
        );
        assert_eq!(parse_steal_ticks("intr 5\n"), None);
        let ((), t) = timed(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t.ms >= 2.0 && t.stolen_ms >= 0.0);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib() > 0.0);
    }
}
