//! The one place a backend stack is assembled.
//!
//! [`assemble`] composes a base backend and whichever layers a
//! [`StackConfig`] asks for, always in the same order, outermost first:
//!
//! ```text
//! instrument → fault → base
//! ```
//!
//! * **instrument** outermost, so an operation's span covers everything
//!   below it, injected delays included;
//! * **fault** innermost, directly over the base, so the layer above is
//!   exercised by what it injects.
//!
//! No layer repeats an operation: the one retry loop
//! ([`crate::retry::RetryPolicy::run`]) is the engine's, above
//! [`Stack::top`], so its cap bounds the attempts at the base backend.

use crate::{
    DynBackend, FaultLayer, FaultRule, InstrumentedBackend, RetryClock, StorageBackend, SystemClock,
};
use bcp_monitor::MetricsSink;
use std::sync::Arc;

/// Which layers to put over the base; every `None` is a layer left out.
#[derive(Default)]
pub struct StackConfig {
    /// Rank stamped on spans emitted outside any entered workflow span.
    pub rank: usize,
    /// Trace every data-plane operation into this sink.
    pub instrument: Option<MetricsSink>,
    /// Inject `(seed, schedule)` directly over the base.
    pub fault: Option<(u64, Vec<FaultRule>)>,
    /// The clock the fault layer waits on (`None` = real time).
    pub clock: Option<Arc<dyn RetryClock>>,
}

/// An assembled stack: `top` is what the engine talks to; `fault` reaches
/// the injector whose counters tests read.
pub struct Stack {
    /// The outermost backend.
    pub top: DynBackend,
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
    let rank = cfg.rank;
    let mut top = base;
    let fault = cfg.fault.map(|(seed, rules)| {
        let clock = cfg.clock.unwrap_or_else(|| Arc::new(SystemClock::default()));
        push(&mut top, |b| FaultLayer::new(b, seed, rules).with_clock(clock))
    });
    if let Some(sink) = cfg.instrument {
        push(&mut top, |b| InstrumentedBackend::new(b, sink, rank));
    }
    Stack { top, fault }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskBackend, JournalBackend, MemoryBackend, OpCountingBackend};
    use bcp_monitor::MetricsHub;
    use bytes::Bytes;

    /// Every layer over `base`, each in its do-nothing configuration, then
    /// the full stack from [`assemble`].
    fn every_layer(base: impl Fn() -> DynBackend) -> Vec<(&'static str, DynBackend)> {
        let hub = MetricsHub::new();
        let full = StackConfig {
            rank: 0,
            instrument: Some(hub.sink()),
            fault: Some((7, Vec::new())),
            clock: None,
        };
        vec![
            ("instrument", Arc::new(InstrumentedBackend::new(base(), hub.sink(), 0))),
            ("op-counting", Arc::new(OpCountingBackend::new(base()))),
            ("fault", Arc::new(FaultLayer::new(base(), 7, Vec::new()))),
            ("journal", Arc::new(JournalBackend::new(base()).unwrap())),
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
            assert_eq!(backend.name(), "probe", "{name}");
        }
    }

    #[test]
    fn layers_stack_in_the_canonical_order() {
        let hub = MetricsHub::new();
        let base = Arc::new(OpCountingBackend::new(Arc::new(MemoryBackend::new())));
        let stack = assemble(
            base.clone(),
            StackConfig {
                instrument: Some(hub.sink()),
                fault: Some((
                    0,
                    vec![FaultRule::new(crate::OpSet::Writes, crate::Fault::Fail { times: 2 })],
                )),
                ..StackConfig::default()
            },
        );
        // Fault is innermost and no layer repeats an attempt: each injected
        // failure surfaces through instrument (outermost) as one failed
        // write, and the third attempt lands.
        let data = Bytes::from_static(b"v");
        assert!(stack.top.write("k", data.clone()).is_err());
        assert!(stack.top.write("k", data.clone()).is_err());
        stack.top.write("k", data).unwrap();
        assert_eq!(stack.fault.as_ref().unwrap().injected(), 2);
        let spans = hub.spans();
        let writes: Vec<_> = spans.iter().filter(|s| s.name.ends_with("/write")).collect();
        assert_eq!(writes.len(), 3, "one span per attempt");
        assert_eq!(writes.iter().filter(|w| w.attrs.contains_key("error")).count(), 2);
        // Nothing above the base answers a read itself: every read reaches it.
        stack.top.read("k").unwrap();
        stack.top.read("k").unwrap();
        assert_eq!(base.reads(), 2);
    }
}
