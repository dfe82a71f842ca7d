//! # nicbar-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate under every interconnect model in the `nicbar`
//! workspace. It provides:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual clock with convenient
//!   microsecond conversions (the paper reports all latencies in µs).
//! * [`Engine`] — a typed discrete-event scheduler. Events are ordered by a
//!   *content-based* key `(time, source, per-source count)`: per source,
//!   same-time events deliver in the order they were scheduled; across
//!   sources, by source id. Because the key is a pure function of the
//!   simulation's own causal history, every run is fully deterministic —
//!   bit-for-bit identical across reruns, scheduler implementations, and
//!   shard counts of the parallel engine.
//! * [`Component`] — the actor trait. NICs, hosts, buses and fabrics are all
//!   components that interact *only* through scheduled events, so the
//!   simulated concurrency is explicit and there is no hidden shared state.
//! * [`SimRng`] — a seeded counter-based RNG (ChaCha8). All randomness in a
//!   simulation flows from one seed, so identical seeds reproduce identical
//!   event traces bit-for-bit.
//! * [`Counters`] — cheap named statistics (packet counts, ACK counts,
//!   retransmissions, ...).
//! * [`Records`] — the four observability stores behind one record path
//!   ([`record`]): the [`Trace`] ring, the [`FlightRecorder`] (typed
//!   [`SpanEvent`]s folded into per-operation phase breakdowns and
//!   log2-bucketed [`Histogram`]s), the causal [`NetDump`] and the
//!   occupancy [`Ledger`]. One routing function fills them on both
//!   engines; each keeps a bounded log with a drop count. Disabled by
//!   default; one branch per emit site when off.
//!
//! * [`ParallelEngine`] — a rank-sharded conservative parallel executor: one
//!   built [`Engine`] split across worker threads by a [`ShardMap`], run in
//!   lookahead-bounded time windows, with results (counters, traces, causal
//!   netdump, final clock) *byte-identical* to the sequential engine at any
//!   shard count. [`ExecEngine`] wraps either flavour behind one API so
//!   harnesses pick an engine per run. See [`parallel`] for the protocol and
//!   the identity argument.
//! * [`EngineProf`] — the engine's *self*-observability: the per-shard
//!   window profiler (typed busy/idle/drain totals plus a window-utilization
//!   histogram) that `nicbar-bench engine-prof` turns into timelines and
//!   bottleneck attributions. Zero-cost unless armed with
//!   [`ParallelEngine::enable_prof`]. See [`telemetry`].
//!
//! ## Example
//!
//! ```
//! use nicbar_sim::{Component, ComponentId, Ctx, Engine, SimTime};
//!
//! enum Msg { Ping(u32), Pong(u32) }
//!
//! struct Player { peer: ComponentId, rallies: u32 }
//!
//! impl Component<Msg> for Player {
//!     fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
//!         match msg {
//!             Msg::Ping(n) if n > 0 => ctx.send(SimTime::from_us(1.0), self.peer, Msg::Pong(n - 1)),
//!             Msg::Pong(n) if n > 0 => ctx.send(SimTime::from_us(1.0), self.peer, Msg::Ping(n - 1)),
//!             _ => ctx.halt(),
//!         }
//!         self.rallies += 1;
//!     }
//! }
//!
//! let mut engine: Engine<Msg> = Engine::new(42);
//! let a = engine.reserve_id();
//! let b = engine.reserve_id();
//! engine.install(a, Player { peer: b, rallies: 0 });
//! engine.install(b, Player { peer: a, rallies: 0 });
//! engine.schedule_at(SimTime::ZERO, a, Msg::Ping(10));
//! engine.run();
//! assert_eq!(engine.now(), SimTime::from_us(10.0));
//! ```

#![warn(missing_docs)]

pub mod causal;
pub mod counters;
pub mod engine;
pub mod hist;
pub mod ledger;
pub mod parallel;
pub mod partition;
pub mod queue;
pub mod record;
pub mod rng;
pub mod span;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use causal::{
    chain_to, find, CausalKind, CauseId, NetDump, PacketLog, PacketRecord, NO_KEY, NO_NODE,
};
pub use counters::{intern, CounterId, CounterSnapshot, Counters};
pub use engine::{Component, ComponentId, Ctx, Engine, RunOutcome};
pub use hist::Histogram;
pub use ledger::{Ledger, LedgerOp, LedgerRecord, Occ, Owner, OwnerKind, ResKind, NO_UNIT};
pub use parallel::{EngineSel, ExecEngine, ParallelEngine};
pub use partition::{node_shard, LatencyMatrix, PartitionSel, ShardMap};
pub use queue::{SchedulerKind, SpscRing};
pub use record::Records;
pub use rng::SimRng;
pub use span::{FlightRecorder, Phase, SpanEvent, SpanSummary, NUM_PHASES};
pub use telemetry::{EngineProf, ProfAttribution, ProfClock, ShardProf, ShardProfData, WindowRec};
pub use time::SimTime;
pub use trace::{Trace, TraceRecord};
