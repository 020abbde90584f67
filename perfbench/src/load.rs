//! The load generator: one thread that sends requests on a schedule (open
//! loop) or on completion (closed loop), and times every request from
//! when it was due to when its response arrived.
//!
//! Between sends the generator blocks on its oldest outstanding response
//! (a single worker answers in order), waking when it arrives or shortly
//! before the next send is due, and spins only for the last
//! [`SPIN_AHEAD`] before a due time. Sends therefore start within
//! microseconds of their due time, responses are timed as they arrive,
//! and an idle generator leaves the CPU to the engine.

use crate::sys;
use crate::trace::SpanLog;
use longtail_serve::{
    DeltaRating, DeltaStore, Engine, EngineStats, PendingResponse, RecommendRequest,
    RecommendResponse, ServeError,
};
use std::time::{Duration, Instant};

/// How long before a due time the generator stops blocking and spins.
pub const SPIN_AHEAD: Duration = Duration::from_micros(150);

/// The run's clock: nanoseconds since the benchmark started.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Read(u32),
    Append(DeltaRating),
}

/// An operation and its due time, as an offset from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub due: Duration,
    pub op: Op,
}

/// Merge two schedules into one ordered by due time.
pub fn merge(a: Vec<Event>, b: Vec<Event>) -> Vec<Event> {
    let mut all = a;
    all.extend(b);
    all.sort_by_key(|e| e.due);
    all
}

/// What happened to one read request.
#[derive(Debug)]
pub struct Read {
    /// Run-wide request id, shared with the replay's spans.
    pub id: u64,
    pub user: u32,
    pub due_ns: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub done_ns: u64,
    pub result: Result<RecommendResponse, ServeError>,
}

impl Read {
    /// Due time to response: the latency the user sees.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Submit to response: the time the request spent inside the engine.
    pub fn sojourn_ns(&self) -> u64 {
        self.done_ns - self.submit_start_ns
    }

    pub fn served(&self) -> Option<&RecommendResponse> {
        self.result.as_ref().ok()
    }
}

/// Everything one load phase recorded.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub reads: Vec<Read>,
    /// Duration of each `DeltaStore::append`, nanoseconds.
    pub append_ns: Vec<u64>,
    /// Duration of each explicit `DeltaStore::publish`, nanoseconds.
    pub publish_ns: Vec<u64>,
    /// How late each send started against its due time, nanoseconds.
    pub late_ns: Vec<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time of the engine's work during the phase: every thread of
    /// the process but the generator's (so the worker and, on ingest, the
    /// maintenance thread's compactions), plus the time the generator
    /// spent inside `DeltaStore::append` and `publish`.
    pub engine_cpu_ns: u64,
    /// Engine counters attributable to this phase.
    pub stats: EngineStats,
}

impl PhaseLog {
    pub fn served(&self) -> usize {
        self.reads.iter().filter(|r| r.result.is_ok()).count()
    }

    pub fn failed(&self) -> usize {
        self.reads.len() - self.served()
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Requests served per second of engine CPU time.
    pub fn served_per_cpu_second(&self) -> f64 {
        self.served() as f64 / (self.engine_cpu_ns.max(1) as f64 * 1e-9)
    }
}

/// The generator's fixed wiring: which engine and model it loads, and
/// where ingest appends go.
pub struct Generator<'a> {
    pub engine: &'a Engine,
    pub model: &'a str,
    pub k: usize,
    pub clock: Clock,
    /// The ingest store and how many appends go between explicit
    /// publishes.
    pub ingest: Option<(&'a DeltaStore, usize)>,
    /// Spans of the load phase, when the run is traced.
    pub trace: Option<&'a mut SpanLog>,
    /// The generator's own thread, whose CPU time (sending, waiting,
    /// spinning) is left out of [`PhaseLog::engine_cpu_ns`].
    tid: u32,
    next_id: u64,
    unpublished: usize,
}

struct InFlight {
    id: u64,
    user: u32,
    due_ns: u64,
    submit_start_ns: u64,
    submit_end_ns: u64,
    handle: PendingResponse,
}

impl<'a> Generator<'a> {
    pub fn new(engine: &'a Engine, model: &'a str, k: usize, clock: Clock) -> Self {
        Self {
            engine,
            model,
            k,
            clock,
            ingest: None,
            trace: None,
            tid: sys::current_tid(),
            next_id: 0,
            unpublished: 0,
        }
    }

    /// Send `events` on their schedule, starting now, and wait for every
    /// response.
    pub fn open_loop(&mut self, events: &[Event]) -> PhaseLog {
        let (before, cpu) = (self.engine.stats(), sys::thread_cpu_ns());
        let start = Instant::now();
        let mut log = PhaseLog {
            start_ns: self.clock.ns(start),
            ..PhaseLog::default()
        };
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut next = 0;
        while next < events.len() || !in_flight.is_empty() {
            let Some(event) = events.get(next) else {
                self.wait_oldest(&mut in_flight, &mut log, Duration::from_secs(60));
                continue;
            };
            let due = start + event.due;
            let now = Instant::now();
            if now >= due {
                log.late_ns.push((now - due).as_nanos() as u64);
                let due_ns = self.clock.ns(due);
                match event.op {
                    Op::Read(user) => self.send(user, due_ns, &mut in_flight, &mut log),
                    Op::Append(rating) => self.append(rating, &mut log),
                }
                next += 1;
                continue;
            }
            let idle = due - now;
            if idle > SPIN_AHEAD {
                if in_flight.is_empty() {
                    std::thread::sleep(idle - SPIN_AHEAD);
                } else {
                    self.wait_oldest(&mut in_flight, &mut log, idle - SPIN_AHEAD);
                }
            } else {
                self.poll(&mut in_flight, &mut log);
                std::hint::spin_loop();
            }
        }
        self.finish(log, &before, &cpu)
    }

    /// Keep `outstanding` requests in flight for `span`, sending each
    /// user of `users` in turn the moment a slot frees, then wait for the
    /// last responses.
    pub fn closed_loop(&mut self, users: &[u32], outstanding: usize, span: Duration) -> PhaseLog {
        let (before, cpu) = (self.engine.stats(), sys::thread_cpu_ns());
        let start = Instant::now();
        let mut log = PhaseLog {
            start_ns: self.clock.ns(start),
            ..PhaseLog::default()
        };
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut cursor = users.iter().cycle();
        let mut due_ns = log.start_ns;
        loop {
            let sending = start.elapsed() < span;
            while sending && in_flight.len() < outstanding {
                let user = *cursor.next().expect("closed loop needs users");
                log.late_ns.push(self.clock.now_ns().saturating_sub(due_ns));
                self.send(user, due_ns, &mut in_flight, &mut log);
            }
            if in_flight.is_empty() {
                break;
            }
            // The next request is due the moment a slot frees.
            if let Some(done) = self.wait_oldest(&mut in_flight, &mut log, Duration::from_secs(60))
            {
                due_ns = done;
            }
        }
        self.finish(log, &before, &cpu)
    }

    fn send(&mut self, user: u32, due_ns: u64, in_flight: &mut Vec<InFlight>, log: &mut PhaseLog) {
        let id = self.next_id;
        self.next_id += 1;
        let request = RecommendRequest::new(self.model, user, self.k);
        let s0 = Instant::now();
        let submitted = self.engine.submit(request);
        let s1 = Instant::now();
        let (submit_start_ns, submit_end_ns) = (self.clock.ns(s0), self.clock.ns(s1));
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.depth_sample(submit_end_ns, self.engine.queue_depth());
        }
        match submitted {
            Ok(handle) => in_flight.push(InFlight {
                id,
                user,
                due_ns,
                submit_start_ns,
                submit_end_ns,
                handle,
            }),
            Err(refused) => self.record(
                Read {
                    id,
                    user,
                    due_ns,
                    submit_start_ns,
                    submit_end_ns,
                    done_ns: submit_end_ns,
                    result: Err(refused),
                },
                log,
            ),
        }
    }

    fn append(&mut self, rating: DeltaRating, log: &mut PhaseLog) {
        let (store, publish_every) = self.ingest.expect("append scheduled without a store");
        let a0 = Instant::now();
        store.append(rating);
        let a1 = Instant::now();
        log.append_ns.push((a1 - a0).as_nanos() as u64);
        let (a0_ns, a1_ns) = (self.clock.ns(a0), self.clock.ns(a1));
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.push("serve.append", a0_ns, a1_ns, None, u64::MAX);
        }
        self.unpublished += 1;
        if self.unpublished >= publish_every {
            self.unpublished = 0;
            let p0 = Instant::now();
            store.publish();
            let p1 = Instant::now();
            log.publish_ns.push((p1 - p0).as_nanos() as u64);
            if let Some(trace) = self.trace.as_deref_mut() {
                let (p0_ns, p1_ns) = (self.clock.ns(p0), self.clock.ns(p1));
                trace.push("serve.publish", p0_ns, p1_ns, None, u64::MAX);
            }
        }
    }

    /// Block up to `timeout` for the oldest outstanding response, then
    /// collect any others that have arrived; returns the arrival time of
    /// the oldest when it came.
    fn wait_oldest(
        &mut self,
        in_flight: &mut Vec<InFlight>,
        log: &mut PhaseLog,
        timeout: Duration,
    ) -> Option<u64> {
        let result = in_flight.first_mut()?.handle.wait_timeout(timeout)?;
        let done_ns = self.clock.now_ns();
        let f = in_flight.remove(0);
        self.arrived(f, done_ns, result, log);
        self.poll(in_flight, log);
        Some(done_ns)
    }

    /// Collect every response that has arrived.
    fn poll(&mut self, in_flight: &mut Vec<InFlight>, log: &mut PhaseLog) {
        let mut i = 0;
        while i < in_flight.len() {
            match in_flight[i].handle.try_recv() {
                Some(result) => {
                    let done_ns = self.clock.now_ns();
                    let f = in_flight.remove(i);
                    self.arrived(f, done_ns, result, log);
                }
                None => i += 1,
            }
        }
    }

    fn arrived(
        &mut self,
        f: InFlight,
        done_ns: u64,
        result: Result<RecommendResponse, ServeError>,
        log: &mut PhaseLog,
    ) {
        let read = Read {
            id: f.id,
            user: f.user,
            due_ns: f.due_ns,
            submit_start_ns: f.submit_start_ns,
            submit_end_ns: f.submit_end_ns,
            done_ns,
            result,
        };
        self.record(read, log);
    }

    fn record(&mut self, read: Read, log: &mut PhaseLog) {
        if let Some(trace) = self.trace.as_deref_mut() {
            let root = trace.push("request", read.due_ns, read.done_ns, None, read.id);
            trace.push(
                "serve.submit",
                read.submit_start_ns,
                read.submit_end_ns,
                Some(root),
                read.id,
            );
        }
        log.reads.push(read);
    }

    fn finish(&mut self, mut log: PhaseLog, before: &EngineStats, cpu: &[(u32, u64)]) -> PhaseLog {
        log.end_ns = self.clock.now_ns();
        let ingest_ns: u64 = log.append_ns.iter().chain(&log.publish_ns).sum();
        log.engine_cpu_ns = sys::cpu_since(cpu, &sys::thread_cpu_ns(), &[self.tid]) + ingest_ns;
        log.stats = self.engine.stats().since(before);
        log.reads.sort_by_key(|r| r.id);
        log
    }
}
