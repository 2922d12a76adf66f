//! The serving stack under test: one tenant in a `ModelRegistry`, an
//! `Engine`, and for the TCP workload an in-process `serve_tcp` listener
//! on a loopback port.

use crate::setup::TENANT;
use selnet_core::PartitionedSelNet;
use selnet_serve::engine::{Engine, EngineConfig};
use selnet_serve::registry::{ModelRegistry, Tenant};
use selnet_serve::server::serve_tcp;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Engine settings: `workers` engine workers (one by default, beside the
/// benchmark's single load-generating thread), 64-row coalescing, the
/// default 256-entry reply cache, serial plan replay.
pub fn engine_config(workers: usize, trace_buffer: usize) -> EngineConfig {
    EngineConfig {
        workers,
        shards: 1,
        max_batch_rows: 64,
        cache_entries: 256,
        auto_batch_min_rows: 0,
        max_queue_rows: 4096,
        slow_query_us: 0,
        trace_buffer,
        replay_threads: 1,
    }
}

struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

/// A running engine (and optionally its TCP front end) serving one model.
pub struct Service {
    pub tenant: Arc<Tenant<PartitionedSelNet>>,
    pub engine: Arc<Engine<PartitionedSelNet>>,
    server: Option<Server>,
}

impl Service {
    /// Registers `model` and starts the engine; with `tcp`, also a
    /// `serve_tcp` listener on an ephemeral loopback port.
    pub fn start(model: PartitionedSelNet, cfg: &EngineConfig, tcp: bool) -> Service {
        let registry = Arc::new(ModelRegistry::empty());
        let tenant = registry
            .register(TENANT, model)
            .expect("the benchmark tenant name is valid");
        let engine = Engine::start(registry, cfg);
        let server = tcp.then(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
            let addr = listener
                .local_addr()
                .expect("bound listener has an address");
            let stop = Arc::new(AtomicBool::new(false));
            let thread = {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || serve_tcp(engine, listener, stop))
            };
            Server { addr, stop, thread }
        });
        Service {
            tenant,
            engine,
            server,
        }
    }

    /// The TCP listener's address.
    ///
    /// # Panics
    /// Panics when the service was started without TCP.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("service started with TCP").addr
    }

    /// Stops the listener (after every client has disconnected, its
    /// connection threads end) and drains and joins the engine.
    pub fn shutdown(self) {
        if let Some(server) = self.server {
            server.stop.store(true, Ordering::SeqCst);
            server
                .thread
                .join()
                .expect("accept loop panicked")
                .expect("accept loop failed");
        }
        self.engine.shutdown();
    }
}
