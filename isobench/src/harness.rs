//! What every workload shares: the op boundary that counts failures, the
//! benchmark-side spans around each call into a layer, per-section
//! aggregation (span time, self time, call counts, counters), and the
//! statistics and host probes the result line reports.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One benchmark-side span. `key` names what was called: `bench.op` for an
/// operation at the op boundary, otherwise the layer call (for example
/// `mps.par_run`). Spans nest through `parent`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Aggregation key.
    pub key: &'static str,
    /// Display name (the op name for `bench.op` spans, else the key).
    pub label: String,
    /// Host start, nanoseconds since the runner's epoch.
    pub start_ns: u64,
    /// Host end, nanoseconds since the runner's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_s(&self) -> f64 {
        ns_to_s(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Totals of one section (one set-up or one pass over the op list).
#[derive(Debug, Default, Clone)]
pub struct Section {
    /// Host wall time of the section.
    pub wall_s: f64,
    /// Peak resident set during the section, less the host probe's
    /// tables, MiB.
    pub peak_rss_mb: f64,
    /// Summed span time per key.
    pub span_s: BTreeMap<&'static str, f64>,
    /// Summed self time (span time minus child-span time) per key.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Spans per key.
    pub calls: BTreeMap<&'static str, u64>,
    /// Counters taken from the return values of layer calls.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Section {
    /// Span time of `key`, 0 when it was not called.
    pub fn span(&self, key: &str) -> f64 {
        self.span_s.get(key).copied().unwrap_or(0.0)
    }

    /// Calls of `key`.
    pub fn calls(&self, key: &str) -> u64 {
        self.calls.get(key).copied().unwrap_or(0)
    }
}

/// An op runs after a host probe when the latest is this old, so that
/// the probes sample the host all through the run.
const PROBE_GAP_S: f64 = 0.1;

/// Drives ops, records spans while tracing, and closes sections.
pub struct Runner {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    section_first_span: usize,
    section_t0: Instant,
    probe: HostProbe,
    last_probe: Instant,
    counts: BTreeMap<&'static str, f64>,
    /// Ops attempted so far.
    pub attempted: u64,
    /// Ops that failed so far.
    pub failed: u64,
    /// Wall-time latency of every op so far, microseconds. Plain numbers,
    /// so that the record adds little to a pass's RSS.
    op_us: Vec<f64>,
    /// Name of the `i`-th op of a section, kept once.
    op_names: Vec<String>,
    section_ops: usize,
}

impl Runner {
    /// A runner with tracing off that runs `probe` between ops.
    pub fn new(probe: HostProbe) -> Self {
        let now = Instant::now();
        Self {
            tracing: false,
            epoch: now,
            spans: Vec::new(),
            stack: Vec::new(),
            section_first_span: 0,
            section_t0: now,
            probe,
            last_probe: now,
            counts: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            op_us: Vec::new(),
            op_names: Vec::new(),
            section_ops: 0,
        }
    }

    /// Switch span recording on or off for the following sections.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, key: &'static str, label: String) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            key,
            label,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close every span opened at or after `depth` (a panic can leave
    /// spans open).
    fn exit_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.stack.len() > depth {
            let id = self.stack.pop().expect("stack is non-empty above depth");
            self.spans[id].end_ns = now;
        }
    }

    /// Start a section: spans and counters from here on belong to it.
    pub fn begin_section(&mut self) {
        self.section_first_span = self.spans.len();
        self.section_ops = 0;
        self.counts.clear();
        reset_peak_rss();
        self.section_t0 = Instant::now();
    }

    /// Close the section and aggregate its spans and counters.
    pub fn end_section(&mut self) -> Section {
        let mut sec = Section {
            wall_s: self.section_t0.elapsed().as_secs_f64(),
            peak_rss_mb: peak_rss_mb() - self.probe.table_mb(),
            counts: std::mem::take(&mut self.counts),
            ..Section::default()
        };
        let spans = &self.spans[self.section_first_span..];
        let mut child_s = vec![0.0; spans.len()];
        for s in spans {
            if let Some(parent) = s
                .parent
                .and_then(|p| p.checked_sub(self.section_first_span))
            {
                child_s[parent] += s.dur_s();
            }
        }
        for (s, child) in spans.iter().zip(child_s) {
            *sec.span_s.entry(s.key).or_default() += s.dur_s();
            *sec.self_s.entry(s.key).or_default() += s.dur_s() - child;
            *sec.calls.entry(s.key).or_default() += 1;
        }
        sec
    }

    /// Run one operation at the op boundary. An `Err` or a panic counts
    /// as a failed op and never aborts the run.
    pub fn op<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Runner) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        self.refresh_probe();
        let depth = self.stack.len();
        if self.tracing {
            self.enter("bench.op", name.to_string());
        }
        if self.section_ops == self.op_names.len() {
            self.op_names.push(name.to_string());
        }
        self.section_ops += 1;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| f(self)));
        self.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.exit_to(depth);
        let why = match out {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(why)) => why,
            Err(panic) => format!("panicked: {}", panic_message(&*panic)),
        };
        self.failed += 1;
        eprintln!("isobench: op {name} failed: {why}");
        None
    }

    /// Run the host probe if the latest probe is older than
    /// `PROBE_GAP_S`.
    pub fn refresh_probe(&mut self) {
        if self.last_probe.elapsed().as_secs_f64() >= PROBE_GAP_S {
            self.sample_probe();
        }
    }

    /// Run the host probe now.
    pub fn sample_probe(&mut self) {
        self.probe.sample();
        self.last_probe = Instant::now();
    }

    /// The host probe.
    pub fn probe(&self) -> &HostProbe {
        &self.probe
    }

    /// Call into a layer's public function; a span under `key` while
    /// tracing.
    pub fn call<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let depth = self.stack.len();
        self.enter(key, key.to_string());
        let out = f();
        self.exit_to(depth);
        out
    }

    /// Add `v` to the section counter `key`.
    pub fn count(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    /// Every op latency recorded so far, microseconds, with the op's
    /// name, from `passes` sections that each ran the same op list.
    pub fn request_latencies(&self, passes: usize) -> Vec<(f64, &str)> {
        let per_pass = (self.op_us.len() / passes.max(1)).max(1);
        self.op_us
            .iter()
            .enumerate()
            .map(|(i, &us)| {
                let name = self
                    .op_names
                    .get(i % per_pass)
                    .map_or("unknown", String::as_str);
                (us, name)
            })
            .collect()
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .or_else(|| {
            panic
                .downcast_ref::<pool::TaskPanic>()
                .map(|t| t.message().to_string())
        })
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The median of `xs`, 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// Median over sections of a per-section value; sections where `f`
/// yields `None` are skipped, and 0 is reported when none yields a value.
pub fn per_section(sections: &[Section], f: impl Fn(&Section) -> Option<f64>) -> f64 {
    let vals: Vec<f64> = sections.iter().filter_map(f).collect();
    median(&vals)
}

/// Reset the process's peak resident set (`VmHWM`) to its current resident
/// set, so the next [`peak_rss_mb`] reads the peak since now. Where the
/// kernel refuses, the peak stays the process-lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Process peak resident set (`VmHWM`), MiB; 0 where procfs is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's parallel ceiling: `k` threads each spin the same fixed
/// integer loop, for `k = 1..=nproc`; the speed-up at `k` is `k·T1/Tk`.
/// Returns the median, over three rounds, of the speed-up at `k = nproc`.
pub fn host_ceiling_speedup(nproc: usize) -> f64 {
    const SPIN: u64 = 20_000_000;
    let spin = || {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..SPIN {
            x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        x
    };
    let time_k = |k: usize| {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..k).map(|_| s.spawn(spin)).collect();
            for h in handles {
                std::hint::black_box(h.join().expect("spin thread does not panic"));
            }
        });
        t0.elapsed().as_secs_f64()
    };
    let mut rounds = Vec::new();
    for _ in 0..3 {
        let t1 = time_k(1);
        let mut at_k = 1.0;
        for k in 2..=nproc.max(1) {
            #[allow(clippy::cast_precision_loss)]
            let speedup = k as f64 * t1 / time_k(k);
            at_k = speedup;
        }
        rounds.push(at_k);
    }
    median(&rounds)
}

/// Entries of the host probe's small tables: 256 Ki, 2 MiB each, more
/// than a core's private caches.
const PROBE_LEN: usize = 1 << 18;
/// Entries of the host probe's far table: 4 Mi, 32 MiB, more than the
/// last-level cache holds for one tenant, over more pages than the TLB
/// maps.
const PROBE_FAR_LEN: usize = 1 << 22;
/// Dependent reads from the far table in one round.
const PROBE_FAR_READS: usize = 12_000;
/// Rounds of one probe.
const PROBE_ROUNDS: usize = 2;
/// Keys sorted in one round.
const PROBE_SORT_LEN: usize = PROBE_LEN / 8;

/// The host's speed, measured in the run it scales. A probe is a fixed
/// piece of ordinary work on `threads` threads at once: sorting, binary
/// searches and a floating-point reduction over tables larger than a
/// core's private caches, then a chain of dependent reads from a table
/// larger than the last-level cache. It allocates nothing, so the heap
/// the workload leaves behind does not change it. Its wall time moves
/// with what the shared host takes from the benchmark: time slices, the
/// core's sibling thread, the shared cache and the memory bus.
pub struct HostProbe {
    keys: Vec<u64>,
    values: Vec<f64>,
    far: Vec<u64>,
    /// One sort buffer per thread.
    scratch: Vec<Vec<u64>>,
    samples_s: Vec<f64>,
}

impl HostProbe {
    /// A probe that runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        let mut rng = Rng::new(0x5eed);
        let keys = (0..PROBE_LEN).map(|_| rng.next_u64()).collect();
        let values = (0..PROBE_LEN).map(|_| rng.unit()).collect();
        let far = (0..PROBE_FAR_LEN).map(|_| rng.next_u64()).collect();
        Self {
            keys,
            values,
            far,
            scratch: vec![vec![0; PROBE_SORT_LEN]; threads.max(1)],
            samples_s: Vec::new(),
        }
    }

    /// MiB the probe's tables hold resident for the whole run.
    #[allow(clippy::cast_precision_loss)]
    pub fn table_mb(&self) -> f64 {
        let bytes = std::mem::size_of_val(&self.keys[..])
            + std::mem::size_of_val(&self.values[..])
            + std::mem::size_of_val(&self.far[..])
            + self.scratch.len() * PROBE_SORT_LEN * std::mem::size_of::<u64>();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// Run the probe once and keep its wall time.
    pub fn sample(&mut self) {
        let (keys, values, far) = (&self.keys[..], &self.values[..], &self.far[..]);
        let t0 = Instant::now();
        if let [only] = &mut self.scratch[..] {
            std::hint::black_box(probe_work(keys, values, far, only));
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .scratch
                    .iter_mut()
                    .map(|buf| s.spawn(|| probe_work(keys, values, far, buf)))
                    .collect();
                for h in handles {
                    std::hint::black_box(h.join().expect("probe thread does not panic"));
                }
            });
        }
        self.samples_s.push(t0.elapsed().as_secs_f64());
    }

    /// Median wall time of the probes so far, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples_s)
    }

    /// Probes run so far.
    pub fn samples(&self) -> usize {
        self.samples_s.len()
    }
}

fn probe_work(keys: &[u64], values: &[f64], far: &[u64], buf: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for round in 0..PROBE_ROUNDS {
        // Sort a slice of the keys: branches and streaming memory.
        buf.copy_from_slice(&keys[round * buf.len()..(round + 1) * buf.len()]);
        buf.sort_unstable();
        // Binary searches: unpredictable branches over the sorted keys.
        let hits = keys
            .iter()
            .step_by(16)
            .filter(|k| buf.binary_search(k).is_ok())
            .count();
        // A floating-point reduction with independent partial sums.
        let mut sums = [0.0f64; 4];
        for chunk in values.chunks_exact(4) {
            for (s, &v) in sums.iter_mut().zip(chunk) {
                *s = v.mul_add(1.000_000_1, *s);
            }
        }
        // Dependent reads from the far table.
        let mask = far.len() - 1;
        let mut at = round;
        for _ in 0..PROBE_FAR_READS {
            at = usize::try_from(far[at & mask] >> 32).unwrap_or(0);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let fp = sums.iter().sum::<f64>() as u64;
        acc = acc.wrapping_add(buf[buf.len() / 2] ^ fp ^ (at + hits) as u64);
    }
    acc
}

/// splitmix64: the seeded generator behind every workload's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Log-uniform in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
