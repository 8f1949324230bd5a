//! The one fault injector: a seeded [`FaultLayer`] driven by a declarative
//! schedule of [`FaultRule`]s — *(which operations, which paths) → what goes
//! wrong*:
//!
//! * [`Fault::Fail`] — the first N matching calls on each path fail with
//!   [`StorageError::Injected`], then succeed: the transient faults the
//!   retry loop must absorb (paper Appendix B);
//! * [`Fault::Delay`] — a transfer-rate cap plus fixed per-op latency, so
//!   real executions show realistic *relative* timing (NAS slower than local
//!   disk); rates are scaled-down analogues, not measurements;
//! * [`Fault::Jitter`] — a seeded pseudo-random delay in `[0, max)` per call;
//! * [`Fault::Script`] — an explicit delay for the 1st, 2nd, ... matching
//!   call (stragglers on demand);
//! * [`Fault::Damage`] — a read returns a flipped bit, a truncated object or
//!   a stale version while the stored bytes stay intact (a bad NIC or page
//!   cache); the `*_at_rest` helpers damage the stored object itself (silent
//!   media corruption).
//!
//! Every matching rule applies, in schedule order. Every delay goes through
//! the layer's [`RetryClock`] — the real clock unless
//! [`FaultLayer::with_clock`] installs a virtual one — and every random
//! choice derives from the seed (mixed with the object path for damage, with
//! the call index for jitter), so a failing run reproduces exactly.

use crate::layer::{self, Op, Reply};
use crate::retry::{fnv1a, splitmix64, RetryClock, SystemClock, FNV_OFFSET};
use crate::{DynBackend, Result, StorageBackend, StorageError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which operations a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSet {
    /// `read`, `read_range` (the download path).
    Reads,
    /// `write`, `write_segments`, `append`, `rename`, `concat` (the upload
    /// path).
    Writes,
    /// Everything else: `size`, `exists`, `list`, `delete`.
    Meta,
    /// `Reads` and `Writes`.
    Data,
    /// Every operation.
    All,
}

impl OpSet {
    fn contains(self, op: &Op<'_>) -> bool {
        let (read, write) = (op.is_read(), op.is_upload());
        match self {
            OpSet::Reads => read,
            OpSet::Writes => write,
            OpSet::Meta => !read && !write,
            OpSet::Data => read || write,
            OpSet::All => true,
        }
    }
}

/// How a read is damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Flip one bit at a seed-derived position.
    BitFlip,
    /// Truncate to a seed-derived strictly shorter length.
    Truncate,
    /// Substitute the version saved by [`FaultLayer::snapshot`].
    Stale,
}

/// What goes wrong; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Fail the first `times` matching calls on each path.
    Fail { times: u32 },
    /// Wait `latency + bytes / bytes_per_sec` (`f64::INFINITY` = no rate
    /// cap): before the call for the bytes written, after it for the bytes
    /// a read returned.
    Delay { bytes_per_sec: f64, latency: Duration },
    /// Wait a seeded pseudo-random time in `[0, max)` before the call.
    Jitter { max: Duration },
    /// Wait `delays[n]` before the n-th matching call (nothing once the
    /// script runs out).
    Script(Vec<Duration>),
    /// Damage what reads return.
    Damage(Damage),
}

/// One line of the schedule: `fault` applies to operations in `ops` whose
/// path contains `path` (every path when `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Operations the rule applies to.
    pub ops: OpSet,
    /// Path substring filter.
    pub path: Option<String>,
    /// What goes wrong.
    pub fault: Fault,
}

impl FaultRule {
    /// `fault` on every path, for operations in `ops`.
    pub fn new(ops: OpSet, fault: Fault) -> FaultRule {
        FaultRule { ops, path: None, fault }
    }

    /// Restrict the rule to paths containing `substring`.
    pub fn on(mut self, substring: &str) -> FaultRule {
        self.path = Some(substring.to_string());
        self
    }
}

/// The schedule of a bandwidth/latency profile: reads capped at `read_bps`,
/// writes at `write_bps` (bytes/second), `op_latency` added to every call.
pub fn throttle(read_bps: f64, write_bps: f64, op_latency: Duration) -> Vec<FaultRule> {
    let delay = |ops, bytes_per_sec| {
        FaultRule::new(ops, Fault::Delay { bytes_per_sec, latency: op_latency })
    };
    vec![
        delay(OpSet::Reads, read_bps),
        delay(OpSet::Writes, write_bps),
        delay(OpSet::Meta, f64::INFINITY),
    ]
}

/// A backend layer that injects the faults its schedule describes.
pub struct FaultLayer {
    inner: DynBackend,
    seed: u64,
    rules: Vec<FaultRule>,
    clock: Arc<dyn RetryClock>,
    name: Option<String>,
    /// [`Fault::Fail`] budget used so far, per (rule index, path).
    failed: Mutex<HashMap<(usize, String), u32>>,
    /// [`Fault::Script`] position, per rule index.
    cursors: Vec<AtomicUsize>,
    /// Calls seen so far: the jitter stream's index.
    calls: AtomicU64,
    /// Saved object versions for [`Damage::Stale`].
    snapshots: Mutex<BTreeMap<String, Bytes>>,
    injected: AtomicU64,
}

impl FaultLayer {
    /// Wrap `inner` with the schedule `rules` (empty = a pure forward);
    /// `seed` drives every damage position and jitter delay. Delays sleep in
    /// real time until [`FaultLayer::with_clock`] says otherwise.
    pub fn new(inner: DynBackend, seed: u64, rules: Vec<FaultRule>) -> FaultLayer {
        FaultLayer {
            inner,
            seed,
            cursors: rules.iter().map(|_| AtomicUsize::new(0)).collect(),
            rules,
            clock: Arc::new(SystemClock::default()),
            name: None,
            failed: Mutex::new(HashMap::new()),
            calls: AtomicU64::new(0),
            snapshots: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Run every injected delay on `clock` (virtual time in tests).
    pub fn with_clock(mut self, clock: Arc<dyn RetryClock>) -> FaultLayer {
        self.clock = clock;
        self
    }

    /// Report `name` to monitoring instead of the inner backend's name
    /// (`"nas"` for a throttled mount).
    pub fn named(mut self, name: impl Into<String>) -> FaultLayer {
        self.name = Some(name.into());
        self
    }

    /// Failures and corruptions injected so far (on calls and at rest).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Snapshot the current content of `path` for later stale substitution.
    pub fn snapshot(&self, path: &str) -> Result<()> {
        let data = self.inner.read(path)?;
        self.snapshots.lock().insert(path.to_string(), data);
        Ok(())
    }

    /// Flip one seed-derived bit of the stored object, in place. Returns
    /// the flipped bit index.
    pub fn flip_bit_at_rest(&self, path: &str) -> Result<u64> {
        self.damage_at_rest(path, Damage::BitFlip)
    }

    /// Truncate the stored object to a seed-derived strictly shorter
    /// length, in place. Returns the new length.
    pub fn truncate_at_rest(&self, path: &str) -> Result<u64> {
        self.damage_at_rest(path, Damage::Truncate)
    }

    /// Replace the stored object with its snapshotted (stale) version.
    pub fn substitute_stale(&self, path: &str) -> Result<()> {
        let stale = self
            .snapshots
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(format!("no snapshot for {path}")))?;
        self.inner.write(path, stale)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn damage_at_rest(&self, path: &str, kind: Damage) -> Result<u64> {
        let data = self.inner.read(path)?;
        let (at, damaged) = self
            .damaged(path, &data, kind)
            .ok_or_else(|| StorageError::Io(format!("cannot damage empty object {path}")))?;
        self.inner.write(path, damaged)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Ok(at)
    }

    /// `data` as `kind` damages it, with where (flipped bit index, kept
    /// length); `None` when there is nothing to damage (empty data, no
    /// snapshot).
    fn damaged(&self, path: &str, data: &Bytes, kind: Damage) -> Option<(u64, Bytes)> {
        if kind == Damage::Stale {
            return self.snapshots.lock().get(path).map(|stale| (0, stale.clone()));
        }
        if data.is_empty() {
            return None;
        }
        // Seed-and-path-derived (splitmix64 over an FNV-1a path hash), so
        // stable across runs.
        let r = splitmix64(self.seed ^ fnv1a(FNV_OFFSET, path.as_bytes()));
        Some(if kind == Damage::BitFlip {
            let bit = r % (data.len() as u64 * 8);
            let mut buf = data.to_vec();
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
            (bit, Bytes::from(buf))
        } else {
            let keep = r % data.len() as u64;
            (keep, data.slice(0..keep as usize))
        })
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            self.clock.sleep(d);
        }
    }

    fn rules_for<'s>(&'s self, op: &'s Op<'_>) -> impl Iterator<Item = (usize, &'s FaultRule)> {
        self.rules.iter().enumerate().filter(move |(_, rule)| {
            rule.ops.contains(op) && rule.path.as_deref().is_none_or(|s| op.path().contains(s))
        })
    }
}

fn transfer_time(latency: Duration, bytes: u64, bytes_per_sec: f64) -> Duration {
    if bytes_per_sec.is_finite() && bytes_per_sec > 0.0 {
        latency + Duration::from_secs_f64(bytes as f64 / bytes_per_sec)
    } else {
        latency
    }
}

impl layer::Layer for FaultLayer {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn name(&self) -> &str {
        self.name.as_deref().unwrap_or_else(|| self.inner.name())
    }

    /// The bandwidth profile, so a trace reader can interpret the timings.
    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = Vec::new();
        let mut latency = None;
        for rule in &self.rules {
            if let Fault::Delay { bytes_per_sec, latency: l } = rule.fault {
                match rule.ops {
                    OpSet::Reads => attrs.push(("read_bps", format!("{bytes_per_sec:.0}"))),
                    OpSet::Writes => attrs.push(("write_bps", format!("{bytes_per_sec:.0}"))),
                    _ => {}
                }
                latency = latency.max(Some(l));
            }
        }
        if let Some(l) = latency {
            attrs.push(("op_latency_us", l.as_micros().to_string()));
        }
        attrs.extend(self.inner.op_attrs());
        attrs
    }

    fn zero_copy_reads(&self) -> bool {
        // Damaged reads may re-allocate; never promise stitchable views.
        !self.rules.iter().any(|r| matches!(r.fault, Fault::Damage(_)))
            && self.inner.zero_copy_reads()
    }

    fn around<T: Reply>(&self, op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        let path = op.path();
        let call_no = self.calls.fetch_add(1, Ordering::Relaxed);
        for (i, rule) in self.rules_for(op) {
            match &rule.fault {
                Fault::Fail { times } => {
                    let mut failed = self.failed.lock();
                    let used = failed.entry((i, path.to_string())).or_insert(0);
                    if *used < *times {
                        *used += 1;
                        self.injected.fetch_add(1, Ordering::Relaxed);
                        let remaining = *times - *used;
                        return Err(StorageError::Injected { path: path.to_string(), remaining });
                    }
                }
                Fault::Delay { bytes_per_sec, latency } if !op.is_read() => {
                    self.sleep(transfer_time(*latency, op.bytes(), *bytes_per_sec))
                }
                Fault::Jitter { max } => {
                    let r = splitmix64(self.seed.wrapping_add(call_no));
                    self.sleep(Duration::from_nanos(r % (max.as_nanos() as u64).max(1)))
                }
                Fault::Script(delays) => {
                    let n = self.cursors[i].fetch_add(1, Ordering::Relaxed);
                    self.sleep(delays.get(n).copied().unwrap_or_default())
                }
                _ => {}
            }
        }
        let mut reply = call()?;
        if let Some(data) = reply.payload() {
            for (_, rule) in self.rules_for(op) {
                match rule.fault {
                    Fault::Delay { bytes_per_sec, latency } => {
                        self.sleep(transfer_time(latency, data.len() as u64, bytes_per_sec))
                    }
                    Fault::Damage(kind) => {
                        if let Some((_, damaged)) = self.damaged(path, data, kind) {
                            *data = damaged;
                            self.injected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use crate::retry::TestClock;

    fn layer(seed: u64, rules: Vec<FaultRule>) -> FaultLayer {
        FaultLayer::new(Arc::new(MemoryBackend::new()), seed, rules)
    }

    fn fail(ops: OpSet, times: u32) -> Vec<FaultRule> {
        vec![FaultRule::new(ops, Fault::Fail { times })]
    }

    #[test]
    fn fails_then_succeeds_per_path() {
        let f = layer(0, fail(OpSet::Writes, 2));
        let data = Bytes::from_static(b"x");
        assert_eq!(
            f.write("a", data.clone()),
            Err(StorageError::Injected { path: "a".into(), remaining: 1 })
        );
        assert!(matches!(f.write("a", data.clone()), Err(StorageError::Injected { .. })));
        assert!(f.write("a", data.clone()).is_ok());
        // Independent budget per path.
        assert!(matches!(f.write("b", data.clone()), Err(StorageError::Injected { .. })));
        assert_eq!(f.injected(), 3);
    }

    #[test]
    fn op_sets_and_path_filters_select_what_fails() {
        let f = layer(0, fail(OpSet::Reads, 1));
        f.write("a", Bytes::from_static(b"1")).unwrap();
        assert!(f.read("a").is_err());
        assert_eq!(&f.read("a").unwrap()[..], b"1");

        // `Data` fails both directions; probes and deletes never match it.
        let f = layer(0, fail(OpSet::Data, 1));
        assert!(f.write("a", Bytes::from_static(b"1")).is_err());
        f.write("a", Bytes::from_static(b"1")).unwrap();
        assert!(!f.exists("b").unwrap());
        f.delete("a").unwrap();

        let f = layer(0, vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: 1 }).on("bad/")]);
        f.write("good/x", Bytes::from_static(b"1")).unwrap();
        assert!(f.write("bad/x", Bytes::from_static(b"1")).is_err());
    }

    #[test]
    fn throughput_cap_slows_transfers_in_virtual_time() {
        let clock = Arc::new(TestClock::new());
        let rules = throttle(2.0 * 1024.0 * 1024.0, 1024.0 * 1024.0, Duration::from_millis(3));
        let t = layer(0, rules).with_clock(clock.clone());
        // 1/8 MiB at 1 MiB/s, plus the per-op latency, before the write.
        t.write("f", Bytes::from(vec![0u8; 128 * 1024])).unwrap();
        assert_eq!(clock.sleeps(), vec![Duration::from_millis(128)]);
        // A read pays for the bytes it returned, at the read rate.
        t.read_range("f", 0, 64 * 1024).unwrap();
        // Metadata pays latency only.
        t.exists("f").unwrap();
        t.rename("f", "g").unwrap();
        assert_eq!(
            clock.sleeps()[1..],
            [34_250, 3_000, 3_000].map(Duration::from_micros),
            "64 KiB at 2 MiB/s + 3 ms; then latency alone"
        );
        assert_eq!(clock.now(), Duration::from_micros(168_250));
    }

    #[test]
    fn nas_profile_reports_its_name_and_attrs() {
        // A scaled-down NAS: moderate bandwidth, noticeable per-op latency.
        let nas = throttle(512.0 * 1048576.0, 256.0 * 1048576.0, Duration::from_micros(500));
        let t = layer(0, nas).named("nas");
        assert_eq!(t.name(), "nas");
        let attrs: HashMap<_, _> = t.op_attrs().into_iter().collect();
        assert_eq!(attrs["read_bps"], "536870912");
        assert_eq!(attrs["write_bps"], "268435456");
        assert_eq!(attrs["op_latency_us"], "500");
        assert_eq!(layer(0, Vec::new()).name(), "memory");
    }

    #[test]
    fn jitter_preserves_semantics_and_is_seeded() {
        let max = Duration::from_micros(200);
        let run = |seed: u64| {
            let clock = Arc::new(TestClock::new());
            let rules = vec![FaultRule::new(OpSet::Data, Fault::Jitter { max })];
            let f = layer(seed, rules).with_clock(clock.clone());
            for i in 0..32 {
                f.write(&format!("p{i}"), Bytes::from_static(b"x")).unwrap();
                assert_eq!(&f.read(&format!("p{i}")).unwrap()[..], b"x");
                f.exists("p0").unwrap(); // not a data op: no jitter
            }
            assert_eq!(f.injected(), 0);
            assert_eq!(clock.now(), clock.sleeps().iter().sum(), "only jitter moved the clock");
            clock.sleeps()
        };
        let sleeps = run(42);
        // 64 jittered ops, each in [0, 200µs) (a zero draw is not slept).
        assert!(sleeps.len() >= 60 && sleeps.len() <= 64 && sleeps.iter().all(|d| *d < max));
        assert_eq!(sleeps, run(42), "same seed, same jitter sequence");
        assert_ne!(sleeps, run(43));
        // Zero jitter is a no-op.
        let clock = Arc::new(TestClock::new());
        let rules = vec![FaultRule::new(OpSet::All, Fault::Jitter { max: Duration::ZERO })];
        let f = layer(7, rules).with_clock(clock.clone());
        f.write("a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(&f.read("a").unwrap()[..], b"1");
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn scripted_delays_apply_per_call_then_run_out() {
        let clock = Arc::new(TestClock::new());
        let script = Fault::Script(vec![
            Duration::from_millis(300),
            Duration::ZERO,
            Duration::from_millis(5),
        ]);
        let f = layer(0, vec![FaultRule::new(OpSet::Reads, script)]).with_clock(clock.clone());
        f.write("k", Bytes::from_static(b"v")).unwrap();
        for _ in 0..5 {
            f.read("k").unwrap();
        }
        assert_eq!(clock.sleeps(), [300, 5].map(Duration::from_millis));
    }

    #[test]
    fn bit_flip_at_rest_is_deterministic_and_single_bit() {
        let payload = Bytes::from_static(b"checkpoint shard payload");
        let (a, b) = (layer(42, Vec::new()), layer(42, Vec::new()));
        for c in [&a, &b] {
            c.write("s/shard.bin", payload.clone()).unwrap();
        }
        let bit_a = a.flip_bit_at_rest("s/shard.bin").unwrap();
        let bit_b = b.flip_bit_at_rest("s/shard.bin").unwrap();
        assert_eq!(bit_a, bit_b, "same seed + path must flip the same bit");
        let damaged = a.read("s/shard.bin").unwrap();
        let diff: u32 = payload.iter().zip(damaged.iter()).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit differs");
        assert_eq!(a.injected(), 1);
        // A different seed flips a different bit.
        let (a, b) = (layer(1, Vec::new()), layer(2, Vec::new()));
        for c in [&a, &b] {
            c.write("f", Bytes::from(vec![0u8; 4096])).unwrap();
        }
        assert_ne!(a.flip_bit_at_rest("f").unwrap(), b.flip_bit_at_rest("f").unwrap());
        // The position is the one the seed and path always gave.
        assert_eq!(
            layer(0xB1C7, Vec::new()).damaged("f", &payload, Damage::BitFlip).unwrap().0,
            111
        );
    }

    #[test]
    fn truncate_and_stale_at_rest() {
        let c = layer(3, Vec::new());
        c.write("t", Bytes::from(vec![9u8; 100])).unwrap();
        let keep = c.truncate_at_rest("t").unwrap();
        assert!(keep < 100);
        assert_eq!(c.size("t").unwrap(), keep);

        c.write("v", Bytes::from_static(b"version1")).unwrap();
        c.snapshot("v").unwrap();
        c.write("v", Bytes::from_static(b"version2")).unwrap();
        c.substitute_stale("v").unwrap();
        assert_eq!(&c.read("v").unwrap()[..], b"version1");
        assert_eq!(c.injected(), 2);
        assert!(matches!(c.substitute_stale("t"), Err(StorageError::NotFound(_))));
        c.write("empty", Bytes::new()).unwrap();
        assert!(matches!(c.flip_bit_at_rest("empty"), Err(StorageError::Io(_))));
    }

    #[test]
    fn on_read_damage_leaves_stored_bytes_intact() {
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        let damage = |kind| FaultRule::new(OpSet::Reads, Fault::Damage(kind));
        let c = FaultLayer::new(mem.clone(), 5, vec![damage(Damage::BitFlip).on("shard")]);
        assert!(!c.zero_copy_reads(), "damaged reads are not stitchable views");
        c.write("r/shard", Bytes::from_static(b"pristine bytes")).unwrap();
        let seen = c.read("r/shard").unwrap();
        assert_ne!(&seen[..], b"pristine bytes");
        assert_eq!(&mem.read("r/shard").unwrap()[..], b"pristine bytes");
        // Reads are repeatable: same damage every time; other paths are clean.
        assert_eq!(&c.read("r/shard").unwrap()[..], &seen[..]);
        c.write("r/other", Bytes::from_static(b"clean")).unwrap();
        assert_eq!(&c.read("r/other").unwrap()[..], b"clean");
        assert_eq!(c.injected(), 2);

        // Truncation applies to ranged reads; stale substitution to both.
        let c = FaultLayer::new(mem.clone(), 6, vec![damage(Damage::Truncate).on("x")]);
        c.write("x", Bytes::from(vec![7u8; 64])).unwrap();
        assert!(c.read_range("x", 0, 64).unwrap().len() < 64);
        let c = FaultLayer::new(mem, 6, vec![damage(Damage::Stale)]);
        c.write("v", Bytes::from_static(b"old")).unwrap();
        assert_eq!(&c.read("v").unwrap()[..], b"old", "no snapshot yet: nothing to substitute");
        c.snapshot("v").unwrap();
        c.write("v", Bytes::from_static(b"new")).unwrap();
        assert_eq!(&c.read("v").unwrap()[..], b"old");
    }

    #[test]
    fn same_seed_and_schedule_inject_the_same_fault_sequence() {
        let run = |seed: u64| {
            let clock = Arc::new(TestClock::new());
            let rules = vec![
                FaultRule::new(OpSet::Data, Fault::Jitter { max: Duration::from_millis(2) }),
                FaultRule::new(OpSet::Writes, Fault::Fail { times: 1 }).on("b"),
                FaultRule::new(OpSet::Reads, Fault::Damage(Damage::BitFlip)).on("a"),
                FaultRule::new(OpSet::Reads, Fault::Damage(Damage::Truncate)).on("b"),
            ];
            let f = layer(seed, rules).with_clock(clock.clone());
            let mut trace = Vec::new();
            for round in 0..3 {
                for path in ["a", "b", "c"] {
                    let before = clock.now();
                    let wrote = f.write(path, Bytes::from(vec![round; 64]));
                    trace.push(("write", path, clock.now() - before, format!("{wrote:?}")));
                    let before = clock.now();
                    let read = f.read(path);
                    trace.push(("read", path, clock.now() - before, format!("{read:?}")));
                }
            }
            (trace, f.injected())
        };
        let (trace, injected) = run(9);
        assert_eq!(injected, 1 + 3 + 2, "one failed write; 3 flipped and 2 truncated reads");
        assert_eq!((trace.clone(), injected), run(9));
        assert_ne!(trace, run(10).0);
    }
}
