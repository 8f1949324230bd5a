//! The one place a backend stack is assembled.
//!
//! [`assemble`] composes a base backend and whichever layers a
//! [`StackConfig`] asks for, always in the same order, outermost first:
//!
//! ```text
//! instrument → govern → cache → fallback → resilient → fault → base
//! ```
//!
//! * **instrument** outermost, so an operation's span covers everything
//!   below it — governor waits, pacing waits, injected delays;
//! * **govern** above the cache: admission is by the caller's bytes, before
//!   the cache is consulted, and per attempt — a retried transfer is
//!   admitted again, so bandwidth is charged for bytes moved;
//! * **cache** above resilience, so a hit costs no pacing token and no
//!   breaker sample;
//! * **fallback** above **resilient**: the resilience layer guards the
//!   primary only, and consecutive failed attempts or its fail-fast
//!   `CircuitOpen` are what trips writes over to the secondary tier;
//! * **fault** innermost, directly over the base, so every layer above is
//!   exercised by what it injects.
//!
//! No layer repeats an operation: the one retry loop
//! ([`crate::retry::RetryPolicy::run`]) is the engine's, above
//! [`Stack::top`], so its cap bounds the attempts at the base backend.
//!
//! The per-load hot overlay ([`crate::TieredReadBackend`]) is per-call data,
//! not configuration, and wraps the assembled stack from outside.

use crate::{
    DynBackend, DynGovernor, FallbackBackend, FaultLayer, FaultRule, GovernedBackend,
    InstrumentedBackend, ReadCache, ResilienceConfig, ResilientBackend, RetryClock, StorageBackend,
    SystemClock,
};
use bcp_monitor::MetricsSink;
use std::sync::Arc;

/// Which layers to put over the base; every `None` is a layer left out.
#[derive(Default)]
pub struct StackConfig {
    /// Rank stamped on spans emitted outside any entered workflow span.
    pub rank: usize,
    /// Trace every data-plane operation into this sink; the cache, fallback
    /// and resilient layers, when configured, emit their point spans
    /// (`dist/read_cache/*`, `storage/failover`, `resil/*`) into it too.
    pub instrument: Option<MetricsSink>,
    /// Admit every transfer through `(governor, job)`, timing the waits
    /// into the sink.
    pub govern: Option<(DynGovernor, String, MetricsSink)>,
    /// Single-flight read cache bounded at this many resident bytes.
    pub cache_bytes: Option<u64>,
    /// Fail writes over to this secondary tier.
    pub fallback: Option<DynBackend>,
    /// Pace, hedge, circuit-break and brownout-shed the tier below.
    pub resilient: Option<ResilienceConfig>,
    /// Inject `(seed, schedule)` directly over the base.
    pub fault: Option<(u64, Vec<FaultRule>)>,
    /// The clock the resilient and fault layers wait on (`None` = real time).
    pub clock: Option<Arc<dyn RetryClock>>,
}

/// An assembled stack: `top` is what the engine talks to; the other handles
/// reach the layers whose counters and switches tests and benches read.
pub struct Stack {
    /// The outermost backend.
    pub top: DynBackend,
    /// The read cache, when configured.
    pub cache: Option<Arc<ReadCache>>,
    /// The failover router, when configured.
    pub fallback: Option<Arc<FallbackBackend>>,
    /// The resilience layer, when configured.
    pub resilient: Option<Arc<ResilientBackend>>,
    /// The fault injector, when configured.
    pub fault: Option<Arc<FaultLayer>>,
}

/// Put the layer `make` builds over `top`, and return a handle to it.
fn push<L: StorageBackend + 'static>(
    top: &mut DynBackend,
    make: impl FnOnce(DynBackend) -> L,
) -> Arc<L> {
    let layer = Arc::new(make(top.clone()));
    *top = layer.clone();
    layer
}

/// Compose `base` and the layers `cfg` asks for in the canonical order (see
/// the module docs).
pub fn assemble(base: DynBackend, cfg: StackConfig) -> Stack {
    let clock = cfg.clock.unwrap_or_else(|| Arc::new(SystemClock::default()));
    let rank = cfg.rank;
    let points = cfg.instrument.clone().unwrap_or_else(MetricsSink::disabled);
    let mut top = base;
    let fault = cfg.fault.map(|(seed, rules)| {
        push(&mut top, |b| FaultLayer::new(b, seed, rules).with_clock(clock.clone()))
    });
    let resilient = cfg.resilient.map(|rc| {
        push(&mut top, |b| {
            ResilientBackend::with_clock(b, rc, clock.clone()).with_sink(points.clone(), rank)
        })
    });
    let fallback = cfg.fallback.map(|secondary| {
        push(&mut top, |b| FallbackBackend::new(b, secondary).with_sink(points.clone(), rank))
    });
    let cache = cfg
        .cache_bytes
        .map(|cap| push(&mut top, |b| ReadCache::new(b, cap).with_sink(points.clone(), rank)));
    if let Some((governor, job, sink)) = cfg.govern {
        push(&mut top, |b| GovernedBackend::new(b, governor, job).with_sink(sink, rank));
    }
    if let Some(sink) = cfg.instrument {
        push(&mut top, |b| InstrumentedBackend::new(b, sink, rank));
    }
    Stack { top, cache, fallback, resilient, fault }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DiskBackend, JournalBackend, MemoryBackend, NoopGovernor, OpCountingBackend,
        TieredReadBackend,
    };
    use bcp_monitor::MetricsHub;
    use bytes::Bytes;
    use std::collections::HashMap;

    /// Every layer (and the router) over `base`, each in its do-nothing
    /// configuration, then the full stack from [`assemble`].
    fn every_layer(base: impl Fn() -> DynBackend) -> Vec<(&'static str, DynBackend)> {
        let hub = MetricsHub::new();
        let full = StackConfig {
            rank: 0,
            instrument: Some(hub.sink()),
            govern: Some((Arc::new(NoopGovernor), "job".into(), hub.sink())),
            cache_bytes: Some(1 << 20),
            fallback: Some(base()),
            resilient: Some(ResilienceConfig::default()),
            fault: Some((7, Vec::new())),
            clock: None,
        };
        vec![
            ("instrument", Arc::new(InstrumentedBackend::new(base(), hub.sink(), 0))),
            ("govern", Arc::new(GovernedBackend::new(base(), Arc::new(NoopGovernor), "job"))),
            ("cache", Arc::new(ReadCache::new(base(), 1 << 20))),
            ("op-counting", Arc::new(OpCountingBackend::new(base()))),
            ("fallback", Arc::new(FallbackBackend::new(base(), base()))),
            ("resilient", Arc::new(ResilientBackend::new(base()))),
            ("fault", Arc::new(FaultLayer::new(base(), 7, Vec::new()))),
            ("journal", Arc::new(JournalBackend::new(base()).unwrap())),
            ("hot-overlay", Arc::new(TieredReadBackend::new(HashMap::new(), base()))),
            ("full stack", assemble(base(), full).top),
        ]
    }

    #[test]
    fn conformance_over_every_layer_and_the_full_stack() {
        for (name, backend) in every_layer(|| Arc::new(MemoryBackend::new())) {
            println!("conformance: {name} over memory");
            crate::conformance::run_all(backend.as_ref());
        }
        let root = std::env::temp_dir().join(format!("bcp-stack-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let n = std::cell::Cell::new(0);
        let disk = || -> DynBackend {
            n.set(n.get() + 1);
            Arc::new(DiskBackend::new(root.join(n.get().to_string())).unwrap())
        };
        for (name, backend) in every_layer(disk) {
            println!("conformance: {name} over disk");
            crate::conformance::run_all(backend.as_ref());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A backend with sentinel capabilities (itself a layer, over memory).
    struct Probe(MemoryBackend);

    impl crate::layer::Layer for Probe {
        fn inner(&self) -> &dyn StorageBackend {
            &self.0
        }
        fn name(&self) -> &str {
            "probe"
        }
        fn op_attrs(&self) -> Vec<(&'static str, String)> {
            vec![("probe_attr", "sentinel".into())]
        }
        fn shed_optional_work(&self) -> bool {
            true
        }
        fn zero_copy_reads(&self) -> bool {
            true
        }
        fn concat_is_metadata_op(&self) -> bool {
            true
        }
    }

    #[test]
    fn no_layer_drops_a_capability_of_the_backend_below() {
        for (name, backend) in every_layer(|| Arc::new(Probe(MemoryBackend::new()))) {
            assert!(
                backend.op_attrs().contains(&("probe_attr", "sentinel".to_string())),
                "{name} dropped the inner op_attrs: {:?}",
                backend.op_attrs()
            );
            assert!(backend.zero_copy_reads(), "{name} dropped zero_copy_reads");
            assert!(backend.concat_is_metadata_op(), "{name} dropped concat_is_metadata_op");
            assert!(backend.shed_optional_work(), "{name} dropped shed_optional_work");
            // The resilience layer renames itself on purpose.
            let renamed = matches!(name, "resilient" | "full stack");
            assert_eq!(backend.name(), if renamed { "resilient" } else { "probe" }, "{name}");
        }
    }

    #[test]
    fn layers_stack_in_the_canonical_order() {
        let hub = MetricsHub::new();
        let secondary: DynBackend = Arc::new(MemoryBackend::new());
        let stack = assemble(
            Arc::new(MemoryBackend::new()),
            StackConfig {
                instrument: Some(hub.sink()),
                cache_bytes: Some(1 << 20),
                fallback: Some(secondary.clone()),
                resilient: Some(ResilienceConfig::default()),
                fault: Some((
                    0,
                    vec![FaultRule::new(crate::OpSet::Writes, crate::Fault::Fail { times: 2 })],
                )),
                ..StackConfig::default()
            },
        );
        // Fault is innermost and no layer repeats an attempt: each injected
        // failure passes the breaker, is counted by the router and surfaces
        // through instrument (outermost) as one failed write; two in a row
        // stay below the router's threshold, and the third attempt lands on
        // the primary and ends the run of failures.
        let data = Bytes::from_static(b"v");
        assert!(stack.top.write("k", data.clone()).is_err());
        assert!(stack.top.write("k", data.clone()).is_err());
        assert_eq!(stack.fallback.as_ref().unwrap().failures(), 2);
        stack.top.write("k", data).unwrap();
        assert_eq!(stack.fault.as_ref().unwrap().injected(), 2);
        assert_eq!(stack.fallback.as_ref().unwrap().failures(), 0);
        assert!(!secondary.exists("k").unwrap());
        let spans = hub.spans();
        let writes: Vec<_> = spans.iter().filter(|s| s.name.ends_with("/write")).collect();
        assert_eq!(writes.len(), 3, "one span per attempt");
        assert_eq!(writes.iter().filter(|w| w.attrs.contains_key("error")).count(), 2);
        assert!(writes[2].attrs.contains_key("read_cache"), "attrs of every layer below");
        // The cache sits above all of it: a repeat read is one backend read.
        stack.top.read("k").unwrap();
        stack.top.read("k").unwrap();
        assert_eq!(stack.cache.as_ref().unwrap().stats().hits, 1);
        assert_eq!(stack.resilient.as_ref().unwrap().stats().reads_logical, 1);
    }
}
