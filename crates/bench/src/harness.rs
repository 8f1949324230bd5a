//! Multi-rank job harness shared by the figure generators: spawn
//! one thread per rank, give each a [`Checkpointer`] over a shared world and
//! backend registry, run a closure, join.

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::Checkpointer;
use bcp_core::registry::BackendRegistry;
use bcp_core::workflow::WorkflowOptions;
use bcp_model::Framework;
use bcp_monitor::MetricsSink;
use bcp_storage::uri::Scheme;
use bcp_storage::{DynBackend, MemoryBackend};
use bcp_topology::Parallelism;
use std::sync::Arc;

/// A registry whose every scheme maps to one shared in-memory store.
pub fn memory_registry() -> Arc<BackendRegistry> {
    registry_over(Arc::new(MemoryBackend::new()))
}

/// A registry over an arbitrary backend (e.g. a throttled one for realistic
/// monitoring output).
pub fn registry_over(backend: DynBackend) -> Arc<BackendRegistry> {
    let mut reg = BackendRegistry::new();
    for scheme in [Scheme::Memory, Scheme::File, Scheme::Hdfs, Scheme::Nas, Scheme::Object] {
        reg.register(scheme, backend.clone());
    }
    Arc::new(reg)
}

/// Run `f(rank, checkpointer)` on one thread per rank.
pub fn run_ranks<F, T>(
    par: Parallelism,
    fw: Framework,
    registry: Arc<BackendRegistry>,
    sink: MetricsSink,
    options: WorkflowOptions,
    f: F,
) -> Vec<T>
where
    F: Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world = par.world_size();
    let comm_world = CommWorld::new(world, Backend::Tree { gpus_per_host: 8, branching: 4 });
    let f = Arc::new(f);
    let mut handles = Vec::new();
    for rank in 0..world {
        let comm_world = comm_world.clone();
        let registry = registry.clone();
        let sink = sink.clone();
        let options = options.clone();
        let f = f.clone();
        handles.push(std::thread::spawn(move || {
            let comm = comm_world.communicator(rank).expect("rank in world");
            let ckpt = Checkpointer::builder(comm)
                .framework(fw)
                .parallelism(par)
                .registry(registry)
                .workflow(options)
                .sink(sink)
                .build()
                .expect("harness checkpointer");
            f(rank, ckpt)
        }));
    }
    handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
}
