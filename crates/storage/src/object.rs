//! A simulated S3-style object store with the same substitution discipline
//! as the simulated HDFS: the *semantics* are real (multipart uploads with a
//! part-size floor and orphaned-part bookkeeping, ranged GETs, eventual list
//! consistency) and the *pathologies* are real (request-rate throttling with
//! `retry-after` hints, transient 5xx storms, connection resets, outage
//! windows), while the data plane is an in-memory map.
//!
//! Failure semantics, mirrored from production object stores:
//!
//! * **Throttling** — a token bucket over all requests. A rejected request
//!   returns typed [`StorageError::SlowDown`] carrying the earliest useful
//!   retry time, and still burns a configurable fraction of a token
//!   ([`ObjectStoreConfig::reject_cost`]): hammering a throttled store with
//!   tight retries reduces the capacity left for requests that would have
//!   succeeded, which is why the engine's retry loop waits at least the hint.
//! * **Transient faults** — seeded 5xx (`Io`) and connection-reset
//!   injection, deterministic in `(seed, request ordinal)`.
//! * **Outages** — windows of virtual time during which every request fails
//!   with a 503; paired with a virtual clock, a 30-second outage soak runs
//!   in real milliseconds.
//! * **Multipart uploads** — `write_segments` maps onto
//!   init/upload-part/complete. Parts respect a minimum size floor (except
//!   the last). A failed upload leaves its parts *orphaned*: invisible to
//!   `list` (so scrub never sees them) but tracked, listable via
//!   [`ObjectStoreBackend::orphaned_uploads`] and reclaimable via
//!   [`ObjectStoreBackend::abort_orphans`] — the moral equivalent of S3's
//!   `AbortMultipartUpload` + lifecycle rules.
//! * **Eventual list consistency** — a freshly-put key is absent from
//!   `list` for [`ObjectStoreConfig::list_lag`], while `read`/`exists`/
//!   `size` are read-after-write consistent (modern S3). Commit checks that
//!   go through `exists` stay sound; anything deriving state from `list`
//!   must tolerate missing recent keys.

use crate::retry::{splitmix64, RetryClock, SystemClock};
use crate::{checked_range, Result, StorageBackend, StorageError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for the simulated object store.
#[derive(Debug, Clone)]
pub struct ObjectStoreConfig {
    /// Fixed per-request service latency (every API call pays it).
    pub request_latency: Duration,
    /// Additional transfer latency per MiB moved (bandwidth model).
    pub per_mib_latency: Duration,
    /// Sustained request rate before throttling kicks in (None = unlimited).
    pub qps_limit: Option<f64>,
    /// Token-bucket burst capacity (requests that may exceed the sustained
    /// rate momentarily).
    pub capacity: f64,
    /// Fraction of a token a *rejected* request still consumes — the
    /// hammering penalty that makes naive tight-loop retries reduce goodput.
    pub reject_cost: f64,
    /// Seeded probability of a transient 5xx per request.
    pub error_rate: f64,
    /// Seeded probability of a connection reset per request.
    pub reset_rate: f64,
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Minimum multipart part size (every part except the last).
    pub part_size_floor: u64,
    /// Eventual-consistency window: freshly-put keys stay absent from
    /// `list` for this long (reads/exists are read-after-write consistent).
    pub list_lag: Duration,
}

impl Default for ObjectStoreConfig {
    fn default() -> ObjectStoreConfig {
        ObjectStoreConfig {
            request_latency: Duration::ZERO,
            per_mib_latency: Duration::ZERO,
            qps_limit: None,
            capacity: 8.0,
            reject_cost: 0.25,
            error_rate: 0.0,
            reset_rate: 0.0,
            seed: 0,
            part_size_floor: 5 * 1024 * 1024,
            list_lag: Duration::ZERO,
        }
    }
}

impl ObjectStoreConfig {
    /// Build a config from `object://` URI query parameters
    /// (`latency_us`, `per_mib_us`, `qps`, `capacity`, `reject_cost`,
    /// `error_rate`, `reset_rate`, `seed`, `part_floor`, `list_lag_ms`).
    pub fn from_params(params: &[(String, String)]) -> Result<ObjectStoreConfig> {
        let mut cfg = ObjectStoreConfig::default();
        for (k, v) in params {
            let bad = |what: &str| {
                StorageError::Io(format!("object store uri param {k}={v}: invalid {what}"))
            };
            match k.as_str() {
                "latency_us" => {
                    cfg.request_latency =
                        Duration::from_micros(v.parse().map_err(|_| bad("microseconds"))?);
                }
                "per_mib_us" => {
                    cfg.per_mib_latency =
                        Duration::from_micros(v.parse().map_err(|_| bad("microseconds"))?);
                }
                "qps" => cfg.qps_limit = Some(v.parse().map_err(|_| bad("rate"))?),
                "capacity" => cfg.capacity = v.parse().map_err(|_| bad("burst capacity"))?,
                "reject_cost" => cfg.reject_cost = v.parse().map_err(|_| bad("fraction"))?,
                "error_rate" => cfg.error_rate = v.parse().map_err(|_| bad("probability"))?,
                "reset_rate" => cfg.reset_rate = v.parse().map_err(|_| bad("probability"))?,
                "seed" => cfg.seed = v.parse().map_err(|_| bad("seed"))?,
                "part_floor" => cfg.part_size_floor = v.parse().map_err(|_| bad("bytes"))?,
                "list_lag_ms" => {
                    cfg.list_lag = Duration::from_millis(v.parse().map_err(|_| bad("ms"))?);
                }
                _ => {
                    return Err(StorageError::Io(format!(
                        "unknown object store uri param: {k} (expected latency_us, per_mib_us, \
                         qps, capacity, reject_cost, error_rate, reset_rate, seed, part_floor, \
                         list_lag_ms)"
                    )));
                }
            }
        }
        Ok(cfg)
    }
}

/// Counters describing what the simulated store has served and rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectStoreStats {
    /// API requests admitted or rejected (everything below is a subset).
    pub requests: u64,
    /// Requests rejected with `SlowDown`.
    pub throttled: u64,
    /// Requests failed with an injected transient 5xx.
    pub injected_5xx: u64,
    /// Requests failed with an injected connection reset.
    pub resets: u64,
    /// Requests rejected because an outage window was active.
    pub outage_rejections: u64,
    /// Multipart uploads initiated.
    pub multipart_inits: u64,
    /// Parts successfully uploaded.
    pub parts_written: u64,
    /// Multipart uploads completed.
    pub multipart_completes: u64,
    /// Multipart uploads aborted (orphan reclamation).
    pub multipart_aborts: u64,
}

#[derive(Debug, Clone)]
struct ObjectEntry {
    data: Bytes,
    /// Virtual time at which the key becomes visible to `list`.
    visible_at: Duration,
}

#[derive(Debug)]
struct Upload {
    key: String,
    parts: Vec<Bytes>,
}

#[derive(Debug, Default)]
struct Store {
    objects: BTreeMap<String, ObjectEntry>,
    /// In-flight or orphaned multipart uploads, by upload id. Never visible
    /// to `list`; a failed `write_segments` leaves its entry here.
    uploads: BTreeMap<u64, Upload>,
    next_upload: u64,
}

#[derive(Debug)]
struct Throttle {
    qps: Option<f64>,
    tokens: f64,
    last: Duration,
}

#[derive(Default)]
struct StatCells {
    requests: AtomicU64,
    throttled: AtomicU64,
    injected_5xx: AtomicU64,
    resets: AtomicU64,
    outage_rejections: AtomicU64,
    multipart_inits: AtomicU64,
    parts_written: AtomicU64,
    multipart_completes: AtomicU64,
    multipart_aborts: AtomicU64,
}

/// The simulated S3-style object store. See the module docs for the failure
/// semantics it reproduces.
pub struct ObjectStoreBackend {
    cfg: ObjectStoreConfig,
    clock: Arc<dyn RetryClock>,
    store: Mutex<Store>,
    throttle: Mutex<Throttle>,
    /// Outage windows in virtual time: every request inside fails with 503.
    outages: Mutex<Vec<(Duration, Duration)>>,
    /// Forced-failure ranges over the request ordinal (`[start, end)`),
    /// for deterministic mid-upload fault tests.
    forced_failures: Mutex<Vec<(u64, u64)>>,
    op_seq: AtomicU64,
    stats: StatCells,
}

impl ObjectStoreBackend {
    /// A store on the real clock.
    pub fn new(cfg: ObjectStoreConfig) -> ObjectStoreBackend {
        ObjectStoreBackend::with_clock(cfg, Arc::new(SystemClock::default()))
    }

    /// A store whose latency sleeps, throttle refills and outage windows
    /// run on `clock` — pass a [`crate::retry::TestClock`] to run
    /// multi-virtual-second soaks in real milliseconds.
    pub fn with_clock(cfg: ObjectStoreConfig, clock: Arc<dyn RetryClock>) -> ObjectStoreBackend {
        let throttle =
            Throttle { qps: cfg.qps_limit, tokens: cfg.capacity.max(1.0), last: clock.now() };
        ObjectStoreBackend {
            cfg,
            clock,
            store: Mutex::new(Store::default()),
            throttle: Mutex::new(throttle),
            outages: Mutex::new(Vec::new()),
            forced_failures: Mutex::new(Vec::new()),
            op_seq: AtomicU64::new(0),
            stats: StatCells::default(),
        }
    }

    /// A store configured from an `object://` URI's query parameters.
    pub fn from_uri(uri: &crate::StorageUri) -> Result<ObjectStoreBackend> {
        Ok(ObjectStoreBackend::new(ObjectStoreConfig::from_params(uri.params())?))
    }

    /// Snapshot of the request counters.
    pub fn stats(&self) -> ObjectStoreStats {
        ObjectStoreStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            throttled: self.stats.throttled.load(Ordering::Relaxed),
            injected_5xx: self.stats.injected_5xx.load(Ordering::Relaxed),
            resets: self.stats.resets.load(Ordering::Relaxed),
            outage_rejections: self.stats.outage_rejections.load(Ordering::Relaxed),
            multipart_inits: self.stats.multipart_inits.load(Ordering::Relaxed),
            parts_written: self.stats.parts_written.load(Ordering::Relaxed),
            multipart_completes: self.stats.multipart_completes.load(Ordering::Relaxed),
            multipart_aborts: self.stats.multipart_aborts.load(Ordering::Relaxed),
        }
    }

    /// Change the sustained request-rate limit (None lifts it). Storm tests
    /// flip this mid-run.
    pub fn set_rate_limit(&self, qps: Option<f64>) {
        let mut t = self.throttle.lock();
        t.qps = qps;
        t.last = self.clock.now();
        t.tokens = t.tokens.clamp(-self.cfg.capacity, self.cfg.capacity.max(1.0));
    }

    /// Declare an outage window `[start, start + duration)` in virtual
    /// time: every request inside fails with a 503.
    pub fn set_outage(&self, start: Duration, duration: Duration) {
        self.outages.lock().push((start, start + duration));
    }

    /// Declare an outage starting now for `duration` of virtual time.
    pub fn outage_now(&self, duration: Duration) {
        let now = self.clock.now();
        self.set_outage(now, duration);
    }

    /// Orphaned (initiated but never completed) multipart uploads:
    /// `(upload_id, target key, part count, total bytes)`.
    pub fn orphaned_uploads(&self) -> Vec<(u64, String, usize, u64)> {
        self.store
            .lock()
            .uploads
            .iter()
            .map(|(id, u)| {
                (*id, u.key.clone(), u.parts.len(), u.parts.iter().map(|p| p.len() as u64).sum())
            })
            .collect()
    }

    /// Abort one orphaned upload, reclaiming its parts.
    pub fn abort_upload(&self, upload_id: u64) -> Result<()> {
        if self.store.lock().uploads.remove(&upload_id).is_none() {
            return Err(StorageError::NotFound(format!("multipart upload {upload_id}")));
        }
        self.stats.multipart_aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Abort every orphaned upload (lifecycle-rule sweep); returns how many
    /// were reclaimed.
    pub fn abort_orphans(&self) -> usize {
        let ids: Vec<u64> = self.store.lock().uploads.keys().copied().collect();
        for id in &ids {
            let _ = self.abort_upload(*id);
        }
        ids.len()
    }

    /// Force the requests with ordinals `[start, start + count)` (0-based,
    /// counted across the backend's lifetime) to fail with a transient 5xx
    /// — a deterministic way to kill, say, exactly the second part of a
    /// multipart upload.
    pub fn fail_requests(&self, start: u64, count: u64) {
        self.forced_failures.lock().push((start, start + count));
    }

    /// Requests served so far (the next request's ordinal).
    pub fn request_ordinal(&self) -> u64 {
        self.stats.requests.load(Ordering::Relaxed)
    }

    /// Deterministic per-request uniform sample in `[0, 1)`.
    fn roll(&self) -> f64 {
        let n = self.op_seq.fetch_add(1, Ordering::Relaxed);
        let u = splitmix64(self.cfg.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (u >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Admit one API request: outage check, token-bucket throttle,
    /// per-request latency, seeded transient-fault injection.
    fn admit(&self, path: &str) -> Result<()> {
        let ordinal = self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if self.forced_failures.lock().iter().any(|(s, e)| ordinal >= *s && ordinal < *e) {
            self.stats.injected_5xx.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(format!("500 Internal Error (forced) on {path}")));
        }
        let now = self.clock.now();
        if self.outages.lock().iter().any(|(s, e)| now >= *s && now < *e) {
            self.stats.outage_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(format!(
                "503 Service Unavailable: object store outage in progress ({path})"
            )));
        }
        {
            let mut t = self.throttle.lock();
            if let Some(qps) = t.qps {
                let dt = now.saturating_sub(t.last).as_secs_f64();
                t.last = now;
                let cap = self.cfg.capacity.max(1.0);
                t.tokens = (t.tokens + dt * qps).min(cap);
                if t.tokens < 1.0 {
                    // The hammering penalty: a rejected request still burns
                    // part of a token, so tight retry loops starve the
                    // capacity that paced clients would have used.
                    t.tokens = (t.tokens - self.cfg.reject_cost).max(-2.0 * cap);
                    let retry_after_ms = (((1.0 - t.tokens) / qps) * 1000.0).ceil().max(1.0) as u64;
                    self.stats.throttled.fetch_add(1, Ordering::Relaxed);
                    return Err(StorageError::SlowDown { path: path.to_string(), retry_after_ms });
                }
                t.tokens -= 1.0;
            }
        }
        if !self.cfg.request_latency.is_zero() {
            self.clock.sleep(self.cfg.request_latency);
        }
        let p = self.roll();
        if p < self.cfg.error_rate {
            self.stats.injected_5xx.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(format!("500 Internal Error (injected) on {path}")));
        }
        if p < self.cfg.error_rate + self.cfg.reset_rate {
            self.stats.resets.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::ConnectionReset { path: path.to_string() });
        }
        Ok(())
    }

    /// Pay the transfer-size-proportional latency.
    fn transfer(&self, bytes: u64) {
        if self.cfg.per_mib_latency.is_zero() || bytes == 0 {
            return;
        }
        let mib = bytes as f64 / (1024.0 * 1024.0);
        self.clock.sleep(Duration::from_secs_f64(self.cfg.per_mib_latency.as_secs_f64() * mib));
    }

    fn put(&self, path: &str, data: Bytes) {
        let visible_at = self.clock.now() + self.cfg.list_lag;
        self.store.lock().objects.insert(path.to_string(), ObjectEntry { data, visible_at });
    }

    fn get(&self, path: &str) -> Result<Bytes> {
        self.store
            .lock()
            .objects
            .get(path)
            .map(|e| e.data.clone())
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }
}

impl StorageBackend for ObjectStoreBackend {
    fn name(&self) -> &str {
        "object"
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let t = self.throttle.lock();
        vec![
            ("object_qps_limit", t.qps.map_or("none".into(), |q| format!("{q:.0}"))),
            ("object_error_rate", format!("{:.4}", self.cfg.error_rate)),
            ("object_list_lag_ms", format!("{}", self.cfg.list_lag.as_millis())),
            ("object_part_floor", format!("{}", self.cfg.part_size_floor)),
        ]
    }

    fn zero_copy_reads(&self) -> bool {
        true
    }

    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.admit(path)?;
        self.transfer(data.len() as u64);
        self.put(path, data);
        Ok(())
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        let total: u64 = segments.iter().map(|s| s.len() as u64).sum();
        if total <= self.cfg.part_size_floor {
            // Small object: a single PUT, exactly like `write`.
            let mut buf = bytes::BytesMut::with_capacity(total as usize);
            for seg in segments {
                buf.extend_from_slice(seg);
            }
            return self.write(path, buf.freeze());
        }
        // Multipart: init, upload parts of `part_size_floor` bytes (the last
        // may be shorter) cut wherever the segment boundaries fall, complete.
        // Any failure leaves the upload orphaned — parts retained but
        // invisible to `list`.
        self.admit(path)?; // init
        let upload_id = {
            let mut store = self.store.lock();
            let id = store.next_upload;
            store.next_upload += 1;
            store.uploads.insert(id, Upload { key: path.to_string(), parts: Vec::new() });
            self.stats.multipart_inits.fetch_add(1, Ordering::Relaxed);
            id
        };
        let mut part = bytes::BytesMut::new();
        let floor = self.cfg.part_size_floor.max(1) as usize;
        let flush = |this: &Self, part: &mut bytes::BytesMut| -> Result<()> {
            if part.is_empty() {
                return Ok(());
            }
            this.admit(path)?; // upload-part request
            let bytes = std::mem::take(part).freeze();
            this.transfer(bytes.len() as u64);
            this.store
                .lock()
                .uploads
                .get_mut(&upload_id)
                .expect("upload registered above")
                .parts
                .push(bytes);
            this.stats.parts_written.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        for seg in segments {
            let mut rest: &[u8] = seg;
            while !rest.is_empty() {
                let take = (floor - part.len()).min(rest.len());
                part.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if part.len() == floor {
                    flush(self, &mut part)?;
                }
            }
        }
        flush(self, &mut part)?; // final (possibly sub-floor) part
        self.admit(path)?; // complete request
        let assembled = {
            let mut store = self.store.lock();
            let upload = store.uploads.remove(&upload_id).expect("upload registered above");
            let mut buf = bytes::BytesMut::with_capacity(upload.parts.iter().map(Bytes::len).sum());
            for p in &upload.parts {
                buf.extend_from_slice(p);
            }
            buf.freeze()
        };
        self.stats.multipart_completes.fetch_add(1, Ordering::Relaxed);
        self.put(path, assembled);
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        // Object stores have no append: model it as read-modify-write
        // (GET + PUT, two requests), preserving list visibility if the key
        // was already visible.
        self.admit(path)?;
        let existing = self.store.lock().objects.get(path).cloned();
        self.admit(path)?;
        let mut buf = bytes::BytesMut::with_capacity(
            existing.as_ref().map_or(0, |e| e.data.len()) + data.len(),
        );
        if let Some(e) = &existing {
            buf.extend_from_slice(&e.data);
        }
        buf.extend_from_slice(data);
        self.transfer(buf.len() as u64);
        let visible_at =
            existing.map(|e| e.visible_at).unwrap_or_else(|| self.clock.now() + self.cfg.list_lag);
        self.store
            .lock()
            .objects
            .insert(path.to_string(), ObjectEntry { data: buf.freeze(), visible_at });
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.admit(path)?;
        let data = self.get(path)?;
        self.transfer(data.len() as u64);
        Ok(data)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.admit(path)?;
        let data = self.get(path)?;
        let range = checked_range(path, data.len() as u64, offset, len)?;
        self.transfer(len);
        Ok(data.slice(range))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.admit(path)?;
        Ok(self.get(path)?.len() as u64)
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.admit(path)?;
        Ok(self.store.lock().objects.contains_key(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.admit(prefix)?;
        let now = self.clock.now();
        Ok(self
            .store
            .lock()
            .objects
            .iter()
            .filter(|(k, e)| k.starts_with(prefix) && e.visible_at <= now)
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.admit(path)?;
        if self.store.lock().objects.remove(path).is_none() {
            return Err(StorageError::NotFound(path.to_string()));
        }
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        // Server-side COPY + DELETE (two requests), like any object store.
        self.admit(from)?;
        let entry = self
            .store
            .lock()
            .objects
            .get(from)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(from.to_string()))?;
        self.admit(to)?;
        let visible_at = self.clock.now() + self.cfg.list_lag;
        let mut store = self.store.lock();
        store.objects.remove(from);
        store.objects.insert(to.to_string(), ObjectEntry { data: entry.data, visible_at });
        Ok(())
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        // Multipart-copy: one request per source part + one completing PUT.
        let mut buf = bytes::BytesMut::new();
        for part in parts {
            self.admit(part)?;
            let data = self.get(part)?;
            buf.extend_from_slice(&data);
        }
        self.admit(target)?;
        self.transfer(buf.len() as u64);
        self.put(target, buf.freeze());
        let mut store = self.store.lock();
        for part in parts {
            store.objects.remove(part);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::TestClock;

    #[test]
    fn conformance() {
        let b = ObjectStoreBackend::new(ObjectStoreConfig::default());
        crate::conformance::run_all(&b);
    }

    #[test]
    fn conformance_with_small_part_floor_exercises_multipart() {
        let b = ObjectStoreBackend::new(ObjectStoreConfig {
            part_size_floor: 4,
            ..ObjectStoreConfig::default()
        });
        crate::conformance::run_all(&b);
        assert!(b.stats().multipart_completes > 0, "gather writes went through multipart");
    }

    #[test]
    fn throttle_returns_slow_down_with_retry_after_and_burns_reject_cost() {
        let clock = Arc::new(TestClock::new());
        let b = ObjectStoreBackend::with_clock(
            ObjectStoreConfig {
                qps_limit: Some(10.0),
                capacity: 2.0,
                reject_cost: 0.5,
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        );
        // Burst of 2 admitted, then SlowDown with a sane hint.
        b.write("k/0", Bytes::from_static(b"x")).unwrap();
        b.write("k/1", Bytes::from_static(b"x")).unwrap();
        let err = b.write("k/2", Bytes::from_static(b"x")).unwrap_err();
        let StorageError::SlowDown { retry_after_ms, .. } = &err else {
            panic!("expected SlowDown, got {err}");
        };
        assert!(*retry_after_ms >= 100, "10 qps -> at least 100ms to mint a token");
        assert!(matches!(err.kind(), crate::StorageErrorKind::Throttled { .. }));
        // Hammering without waiting keeps digging the hole (hammer penalty):
        // the hint grows as rejected requests burn fractional tokens.
        let mut last = *retry_after_ms;
        for _ in 0..4 {
            let e = b.write("k/2", Bytes::from_static(b"x")).unwrap_err();
            if let StorageError::SlowDown { retry_after_ms, .. } = e {
                assert!(retry_after_ms >= last);
                last = retry_after_ms;
            } else {
                panic!("expected SlowDown");
            }
        }
        // Honoring the hint succeeds.
        clock.advance(Duration::from_millis(last));
        b.write("k/2", Bytes::from_static(b"x")).unwrap();
        assert!(b.stats().throttled >= 5);
    }

    #[test]
    fn outage_window_rejects_everything_then_recovers() {
        let clock = Arc::new(TestClock::new());
        let b = ObjectStoreBackend::with_clock(ObjectStoreConfig::default(), clock.clone());
        b.write("pre", Bytes::from_static(b"ok")).unwrap();
        b.set_outage(clock.now(), Duration::from_secs(30));
        let err = b.read("pre").unwrap_err();
        assert!(matches!(err.kind(), crate::StorageErrorKind::Retryable), "{err}");
        assert!(b.write("during", Bytes::from_static(b"x")).is_err());
        clock.advance(Duration::from_secs(31));
        assert_eq!(&b.read("pre").unwrap()[..], b"ok");
        assert!(b.stats().outage_rejections >= 2);
    }

    #[test]
    fn seeded_faults_are_deterministic_and_typed() {
        let run = || {
            let b = ObjectStoreBackend::new(ObjectStoreConfig {
                error_rate: 0.2,
                reset_rate: 0.2,
                seed: 42,
                ..ObjectStoreConfig::default()
            });
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(match b.write(&format!("k/{i}"), Bytes::from_static(b"d")) {
                    Ok(()) => 0u8,
                    Err(StorageError::Io(_)) => 1,
                    Err(StorageError::ConnectionReset { .. }) => 2,
                    Err(e) => panic!("unexpected error {e}"),
                });
            }
            (outcomes, b.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed, same fault stream");
        assert_eq!(sa, sb);
        assert!(sa.injected_5xx > 0 && sa.resets > 0);
        // Every injected failure classifies as retryable.
        assert!(matches!(
            StorageError::ConnectionReset { path: "p".into() }.kind(),
            crate::StorageErrorKind::Retryable
        ));
    }

    #[test]
    fn failed_multipart_leaves_orphan_parts_invisible_to_list() {
        let b = ObjectStoreBackend::new(ObjectStoreConfig {
            part_size_floor: 4,
            ..ObjectStoreConfig::default()
        });
        // Requests for this upload: 0 = init, 1 = part "aaaa", 2 = part
        // "bbbb", 3 = complete. Kill exactly the second part.
        b.fail_requests(2, 1);
        let segs = [Bytes::from_static(b"aaaa"), Bytes::from_static(b"bbbb")];
        assert!(b.write_segments("ck/step_1/model_0.bin", &segs).is_err());
        assert!(b.list("ck/").unwrap().is_empty(), "orphan parts never appear in list");
        assert!(!b.exists("ck/step_1/model_0.bin").unwrap());
        let orphans = b.orphaned_uploads();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].1, "ck/step_1/model_0.bin");
        assert_eq!(orphans[0].2, 1, "the first part landed before the failure");
        // A retried upload succeeds and the object is whole; the stale
        // orphan stays invisible until a lifecycle sweep reclaims it.
        b.write_segments("ck/step_1/model_0.bin", &segs).unwrap();
        assert_eq!(&b.read("ck/step_1/model_0.bin").unwrap()[..], b"aaaabbbb");
        assert_eq!(b.list("ck/").unwrap(), vec!["ck/step_1/model_0.bin".to_string()]);
        assert_eq!(b.abort_orphans(), 1);
        assert!(b.orphaned_uploads().is_empty());
    }

    #[test]
    fn eventual_list_consistency_hides_recent_puts_but_not_reads() {
        let clock = Arc::new(TestClock::new());
        let b = ObjectStoreBackend::with_clock(
            ObjectStoreConfig { list_lag: Duration::from_secs(5), ..ObjectStoreConfig::default() },
            clock.clone(),
        );
        b.write("ck/step_9/COMPLETE", Bytes::from_static(b"ok")).unwrap();
        // Read-after-write holds...
        assert!(b.exists("ck/step_9/COMPLETE").unwrap());
        assert_eq!(&b.read("ck/step_9/COMPLETE").unwrap()[..], b"ok");
        // ...but the key is list-invisible inside the lag window.
        assert!(b.list("ck/").unwrap().is_empty());
        clock.advance(Duration::from_secs(6));
        assert_eq!(b.list("ck/").unwrap(), vec!["ck/step_9/COMPLETE".to_string()]);
    }

    #[test]
    fn per_request_and_per_mib_latency_run_on_the_clock() {
        let clock = Arc::new(TestClock::new());
        let b = ObjectStoreBackend::with_clock(
            ObjectStoreConfig {
                request_latency: Duration::from_millis(2),
                per_mib_latency: Duration::from_millis(10),
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        );
        b.write("k", Bytes::from(vec![0u8; 1024 * 1024])).unwrap();
        let elapsed = clock.now();
        assert!(
            elapsed >= Duration::from_millis(12),
            "1 MiB PUT pays request + transfer latency, got {elapsed:?}"
        );
    }

    #[test]
    fn uri_params_configure_the_store() {
        let cfg = ObjectStoreConfig::from_params(&[
            ("qps".into(), "50".into()),
            ("capacity".into(), "4".into()),
            ("latency_us".into(), "1500".into()),
            ("list_lag_ms".into(), "250".into()),
            ("seed".into(), "7".into()),
        ])
        .unwrap();
        assert_eq!(cfg.qps_limit, Some(50.0));
        assert_eq!(cfg.capacity, 4.0);
        assert_eq!(cfg.request_latency, Duration::from_micros(1500));
        assert_eq!(cfg.list_lag, Duration::from_millis(250));
        assert_eq!(cfg.seed, 7);
        assert!(ObjectStoreConfig::from_params(&[("nope".into(), "1".into())]).is_err());
        assert!(ObjectStoreConfig::from_params(&[("qps".into(), "fast".into())]).is_err());
    }
}
