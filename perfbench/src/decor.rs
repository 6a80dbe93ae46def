//! Decorators that time the program's layers from outside: an
//! [`ExecutionBackend`] that records one span per `run_level` call, and a
//! [`Transport`] that counts and times every frame sent and received.

use crate::trace::{SpanId, Tracer};
use euler_bsp::transport::{Connection, Listener, FRAME_HEADER_BYTES};
use euler_bsp::{FrameError, Transport};
use euler_core::{EulerError, ExecutionBackend, LevelOutcome, LevelWork};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wraps a backend and records a `walk.l<k>` span around each level.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
    context: Cell<(u64, Option<SpanId>)>,
}

impl<B: ExecutionBackend> TracedBackend<B> {
    /// Decorates `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        TracedBackend {
            inner,
            tracer,
            context: Cell::new((0, None)),
        }
    }

    /// Sets the run and parent span that the next level spans belong to.
    pub fn set_context(&self, run: u64, parent: Option<SpanId>) {
        self.context.set((run, parent));
    }
}

impl<B: ExecutionBackend> ExecutionBackend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_level(&self, work: LevelWork<'_>) -> Result<LevelOutcome, EulerError> {
        let (run, parent) = self.context.get();
        let name = format!("walk.l{}", work.level);
        self.tracer
            .span(name, run, parent, |_| self.inner.run_level(work))
    }

    fn engine_stats(&self) -> Option<euler_bsp::EngineStats> {
        self.inner.engine_stats()
    }

    fn warnings(&self) -> Vec<String> {
        self.inner.warnings()
    }
}

/// Frame counters shared by every connection of a [`CountingTransport`].
/// Times are summed over all threads that send or wait.
#[derive(Debug, Default)]
pub struct WireCounters {
    totals: Mutex<WireTotals>,
}

/// A snapshot of [`WireCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireTotals {
    /// Frames sent.
    pub frames: u64,
    /// Bytes sent, frame headers included.
    pub bytes: u64,
    /// Seconds spent inside `send`.
    pub send_s: f64,
    /// Seconds spent inside `recv_timeout`.
    pub recv_wait_s: f64,
    /// `recv_timeout` calls that timed out.
    pub recv_timeouts: u64,
    /// `recv_timeout` calls.
    pub recv_calls: u64,
    /// `recv_timeout` calls that returned a frame.
    pub frames_received: u64,
}

impl WireCounters {
    /// The current totals.
    pub fn totals(&self) -> WireTotals {
        *self.lock()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WireTotals> {
        self.totals
            .lock()
            .expect("a thread panicked while counting frames")
    }
}

/// Wraps a transport; every listener and connection it hands out counts
/// into one [`WireCounters`].
pub struct CountingTransport {
    inner: Arc<dyn Transport>,
    counters: Arc<WireCounters>,
}

impl CountingTransport {
    /// Decorates `inner`.
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        CountingTransport {
            inner,
            counters: Arc::default(),
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<WireCounters> {
        Arc::clone(&self.counters)
    }
}

impl Transport for CountingTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let inner = self.inner.listen()?;
        Ok(Box::new(CountingListener {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let inner = self.inner.connect(endpoint)?;
        Ok(Box::new(CountingConnection {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn supports_processes(&self) -> bool {
        self.inner.supports_processes()
    }
}

struct CountingListener {
    inner: Box<dyn Listener>,
    counters: Arc<WireCounters>,
}

impl Listener for CountingListener {
    fn endpoint(&self) -> String {
        self.inner.endpoint()
    }

    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
        let inner = self.inner.accept(timeout)?;
        Ok(Box::new(CountingConnection {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }
}

struct CountingConnection {
    inner: Box<dyn Connection>,
    counters: Arc<WireCounters>,
}

impl Connection for CountingConnection {
    fn send(&self, kind: u16, payload: &[u8]) -> Result<(), FrameError> {
        let t = Instant::now();
        let out = self.inner.send(kind, payload);
        let secs = t.elapsed().as_secs_f64();
        let mut c = self.counters.lock();
        c.send_s += secs;
        if out.is_ok() {
            c.frames += 1;
            c.bytes += (payload.len() + FRAME_HEADER_BYTES) as u64;
        }
        out
    }

    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        let t = Instant::now();
        let out = self.inner.recv_timeout(timeout);
        let secs = t.elapsed().as_secs_f64();
        let mut c = self.counters.lock();
        c.recv_wait_s += secs;
        c.recv_calls += 1;
        match &out {
            Ok(_) => c.frames_received += 1,
            Err(FrameError::Timeout) => c.recv_timeouts += 1,
            Err(_) => {}
        }
        out
    }

    fn set_send_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_send_timeout(timeout)
    }
}
