//! Concurrency contract of the single-flight read cache: K concurrent
//! readers of one object cost exactly one backend fetch (measured by an
//! instrumented backend, not inferred from timings), and a leader that
//! dies mid-fetch hands off to a waiter instead of wedging the flight.

use bcp_monitor::{labels, MetricsRegistry, MetricsSink};
use bcp_storage::{
    assemble, fault, DynBackend, MemoryBackend, OpCountingBackend, ReadCache, StackConfig,
    StorageBackend,
};
use bytes::Bytes;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const K: usize = 16;

/// memory → op-counting (the measurement) → per-op latency (so the K
/// readers genuinely overlap inside one fetch) → read cache.
fn counted_cache(op_latency: Duration) -> (Arc<OpCountingBackend>, Arc<ReadCache>) {
    let mem = MemoryBackend::new();
    mem.write("obj", Bytes::from(vec![7u8; 4096])).unwrap();
    let counting = Arc::new(OpCountingBackend::new(Arc::new(mem)));
    let stack = assemble(
        counting.clone(),
        StackConfig {
            fault: Some((0, fault::throttle(f64::INFINITY, f64::INFINITY, op_latency))),
            cache_bytes: Some(1 << 20),
            ..StackConfig::default()
        },
    );
    (counting, stack.cache.expect("configured"))
}

#[test]
fn k_concurrent_readers_trigger_exactly_one_backend_fetch() {
    let (counting, cache) = counted_cache(Duration::from_millis(80));
    let gate = Arc::new(Barrier::new(K));
    let handles: Vec<_> = (0..K)
        .map(|_| {
            let cache = cache.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                gate.wait();
                cache.read("obj").unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap().len(), 4096);
    }
    assert_eq!(counting.reads(), 1, "single-flight: one backend fetch for {K} readers");
    assert_eq!(counting.read_bytes(), 4096);
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "the leader is the only miss");
    assert_eq!(stats.hits, K as u64 - 1, "every waiter counts as a hit");
    assert_eq!(stats.bytes_saved, (K as u64 - 1) * 4096, "waiters' bytes never hit the backend");
    assert_eq!(stats.bytes_fetched, 4096);

    // A second wave is all warm hits: still one backend fetch ever.
    for _ in 0..K {
        cache.read("obj").unwrap();
    }
    assert_eq!(counting.reads(), 1);
    assert_eq!(cache.stats().hits, 2 * K as u64 - 1);
}

#[test]
fn dead_leader_hands_off_and_waiters_still_get_served() {
    let backend: DynBackend = Arc::new(MemoryBackend::new());
    let cache = Arc::new(ReadCache::new(backend, 1 << 20));
    let successful_fetches = Arc::new(AtomicUsize::new(0));
    // Leader and waiters rendezvous *inside* the leader's fetch closure, so
    // every waiter is provably parked on the flight when the leader dies.
    let in_fetch = Arc::new(Barrier::new(2));

    let leader = {
        let cache = cache.clone();
        let in_fetch = in_fetch.clone();
        std::thread::spawn(move || {
            let _ = cache.get_with("chunk", None, || {
                in_fetch.wait();
                std::thread::sleep(Duration::from_millis(50));
                panic!("leader dies mid-fetch");
            });
        })
    };
    in_fetch.wait(); // the leader owns the flight from here on
    let waiters: Vec<_> = (0..K)
        .map(|_| {
            let cache = cache.clone();
            let successful_fetches = successful_fetches.clone();
            std::thread::spawn(move || {
                cache
                    .get_with("chunk", None, || {
                        successful_fetches.fetch_add(1, Ordering::SeqCst);
                        Ok(Bytes::from_static(b"recovered"))
                    })
                    .unwrap()
            })
        })
        .collect();

    assert!(leader.join().is_err(), "the leader thread really panicked");
    for w in waiters {
        assert_eq!(w.join().unwrap(), Bytes::from_static(b"recovered"));
    }
    assert_eq!(
        successful_fetches.load(Ordering::SeqCst),
        1,
        "exactly one waiter self-elected after the leader died"
    );
}

#[test]
fn fetch_errors_are_not_cached_and_release_the_flight() {
    let backend: DynBackend = Arc::new(MemoryBackend::new());
    let cache = ReadCache::new(backend, 1 << 20);
    let err = cache.get_with("k", None, || Err(bcp_storage::StorageError::Io("transient".into())));
    assert!(err.is_err());
    // The failed flight is gone: the next caller fetches fresh and succeeds.
    let ok = cache.get_with("k", None, || Ok(Bytes::from_static(b"v"))).unwrap();
    assert_eq!(ok, Bytes::from_static(b"v"));
    assert_eq!(cache.stats().misses, 1, "only the successful fetch counts as a miss");
}

/// An instrumented stack hands its sink to the cache layer, so the live
/// `read_cache_*` series (and the alert and `bcpctl top` column built on
/// them) are fed by real traffic, not only by hand-built test spans.
#[test]
fn assembled_stack_feeds_the_read_cache_series() {
    let registry = Arc::new(MetricsRegistry::new());
    let job = labels([("job", "j")]);
    let stack = assemble(
        Arc::new(MemoryBackend::new()),
        StackConfig {
            rank: 3,
            instrument: Some(MetricsSink::folding(registry.clone(), job.clone())),
            cache_bytes: Some(1 << 20),
            ..StackConfig::default()
        },
    );
    stack.top.write("obj", Bytes::from(vec![7u8; 4096])).unwrap();
    for _ in 0..3 {
        stack.top.read("obj").unwrap(); // one miss, then two hits
    }
    assert_eq!(registry.value("read_cache_misses_total", &job), Some(1.0));
    assert_eq!(registry.value("read_cache_hits_total", &job), Some(2.0));
    assert_eq!(registry.value("read_cache_bytes_saved_total", &job), Some(8192.0));
    let rate = registry.value("read_cache_hit_rate", &job).expect("gauge fed");
    assert!((rate - 2.0 / 3.0).abs() < 1e-9, "hit rate {rate}");
    // The cache events are per-job counters; they add no phase series.
    assert!(registry.samples_for("phase_seconds_total").is_empty());
}
