//! An MPI-like world: one thread per rank, channels for point-to-point
//! messages, deterministic collectives, and simulated-time integration.
//!
//! The collectives are implemented star-wise through rank 0 with a fixed
//! reduction order, so results (including floating-point rounding) are
//! bit-reproducible across runs — a property the numerical regression tests
//! rely on.  Channels are `std::sync::mpsc` (one per ordered rank pair), so
//! the substrate has no dependencies outside the standard library.
//!
//! Each rank carries a [`fun3d_telemetry::Registry`]: disabled (zero-cost)
//! under [`run_world`], enabled per rank under [`run_world_with`] with
//! [`WorldOptions::instrument`], where collectives and scatters record spans
//! under the same schema the solver uses.

use crate::clock::SimClock;
use crate::ranktrace::{LedgerOp, MessageLedger, RankTracer};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::{FlowEdge, Registry};
use std::sync::mpsc::{channel, Receiver, Sender};

/// A message: tag, payload, and the sender's simulated send time.
#[derive(Debug)]
struct Msg {
    tag: u32,
    data: Vec<f64>,
    sim_sent: f64,
}

/// One rank's endpoint in the world.
pub struct Rank {
    id: usize,
    nranks: usize,
    /// Senders to every rank (index = destination).
    tx: Vec<Sender<Msg>>,
    /// Receivers from every rank (index = source).
    rx: Vec<Receiver<Msg>>,
    /// The simulated clock.
    pub clock: SimClock,
    /// Per-rank profiling registry (disabled unless [`WorldOptions`] asks
    /// for instrumentation).  Cloning it is cheap; clone before opening
    /// spans around calls that need `&mut self`.
    pub telemetry: Registry,
    /// Per-rank structured event sink (enabled together with `telemetry`);
    /// scatters emit [`fun3d_telemetry::events::EventRecord::Scatter`]
    /// records into it.
    pub events: EventSink,
    /// Per-rank message ledger (enabled under [`run_world_with`] when
    /// `trace_ranks` is set): every send, receive, and collective with its
    /// simulated cost and wait-vs-transfer split.
    pub ledger: MessageLedger,
}

impl Rank {
    /// This rank's id in `0..nranks`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Send `data` to `to` with `tag`. Non-blocking (channels are
    /// unbounded); charges injection overhead to the simulated clock.
    pub fn send(&mut self, to: usize, tag: u32, data: Vec<f64>) {
        let bytes = (data.len() * 8) as f64;
        let t_start = self.clock.now();
        let msg = Msg {
            tag,
            data,
            sim_sent: t_start,
        };
        let cost = self.clock.send_message(bytes);
        self.ledger.record(LedgerOp::Send {
            peer: to,
            bytes,
            t_start,
            inject_s: cost.active_s,
        });
        self.tx[to].send(msg).expect("receiver hung up");
    }

    /// Receive the next message from `from`; panics if its tag differs
    /// (messages between a pair are ordered, so tags act as assertions).
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<f64> {
        let msg = self.rx[from].recv().expect("sender hung up");
        assert_eq!(
            msg.tag, tag,
            "tag mismatch on rank {} from {}",
            self.id, from
        );
        let bytes = (msg.data.len() * 8) as f64;
        let t_start = self.clock.now();
        let cost = self.clock.receive_message(bytes, msg.sim_sent);
        if self.ledger.is_enabled() {
            self.ledger.record(LedgerOp::Recv {
                peer: from,
                bytes,
                t_start,
                sent_at: msg.sim_sent,
                wait_s: cost.wait_s,
                transfer_s: cost.active_s,
            });
            // Scatter edge for the chrome trace: sender's lane at send time
            // to this rank's lane at receive completion.
            self.telemetry.record_flow(FlowEdge {
                src_rank: from,
                src_ts_s: msg.sim_sent,
                dst_rank: self.id,
                dst_ts_s: self.clock.now(),
            });
        }
        msg.data
    }

    /// Element-wise sum allreduce with deterministic order (rank 0 reduces
    /// 1, 2, ..., p-1, then broadcasts). Synchronizes simulated clocks.
    pub fn allreduce_sum(&mut self, x: &[f64]) -> Vec<f64> {
        self.allreduce_with(x, |acc, v| {
            for (a, b) in acc.iter_mut().zip(v) {
                *a += b;
            }
        })
    }

    /// Element-wise max allreduce.
    pub fn allreduce_max(&mut self, x: &[f64]) -> Vec<f64> {
        self.allreduce_with(x, |acc, v| {
            for (a, b) in acc.iter_mut().zip(v) {
                *a = a.max(*b);
            }
        })
    }

    /// Scalar sum allreduce convenience.
    pub fn allreduce_sum_scalar(&mut self, v: f64) -> f64 {
        self.allreduce_sum(&[v])[0]
    }

    /// Scalar max allreduce convenience.
    pub fn allreduce_max_scalar(&mut self, v: f64) -> f64 {
        self.allreduce_max(&[v])[0]
    }

    /// Barrier (an empty allreduce).
    pub fn barrier(&mut self) {
        let tel = self.telemetry.clone();
        let _span = tel.span("comm/barrier");
        self.allreduce_sum(&[]);
    }

    fn allreduce_with(
        &mut self,
        x: &[f64],
        mut combine: impl FnMut(&mut [f64], &[f64]),
    ) -> Vec<f64> {
        const TAG_GATHER: u32 = u32::MAX - 1;
        const TAG_BCAST: u32 = u32::MAX - 2;
        let tel = self.telemetry.clone();
        let _span = tel.span("comm/allreduce");
        tel.counter("allreduce_elems", x.len() as f64);
        let p = self.nranks;
        // Piggyback the local simulated time as the last element.
        let mut payload: Vec<f64> = Vec::with_capacity(x.len() + 1);
        payload.extend_from_slice(x);
        payload.push(self.clock.now());
        let t_start = self.clock.now();
        let (acc, t_max, critical_rank);
        if self.id == 0 {
            let mut a = payload[..x.len()].to_vec();
            let mut tm = self.clock.now();
            // First-max-wins ties make the critical rank deterministic.
            let mut argmax = 0usize;
            for from in 1..p {
                // Collective bookkeeping bypasses the scatter-time model:
                // raw channel receive, time handled by allreduce_sync below.
                let msg = self.rx[from].recv().expect("sender hung up");
                assert_eq!(msg.tag, TAG_GATHER);
                combine(&mut a, &msg.data[..x.len()]);
                if msg.data[x.len()] > tm {
                    tm = msg.data[x.len()];
                    argmax = from;
                }
            }
            let mut out = a.clone();
            out.push(tm);
            out.push(argmax as f64);
            for to in 1..p {
                self.tx[to]
                    .send(Msg {
                        tag: TAG_BCAST,
                        data: out.clone(),
                        sim_sent: 0.0,
                    })
                    .expect("receiver hung up");
            }
            (acc, t_max, critical_rank) = (a, tm, argmax);
        } else {
            self.tx[0]
                .send(Msg {
                    tag: TAG_GATHER,
                    data: payload,
                    sim_sent: 0.0,
                })
                .expect("receiver hung up");
            let msg = self.rx[0].recv().expect("root hung up");
            assert_eq!(msg.tag, TAG_BCAST);
            (acc, t_max, critical_rank) = (
                msg.data[..x.len()].to_vec(),
                msg.data[x.len()],
                msg.data[x.len() + 1] as usize,
            );
        }
        let cost = self.clock.allreduce_sync(p, t_max);
        self.ledger.record(LedgerOp::Collective {
            p,
            elems: x.len(),
            t_start,
            t_max,
            critical_rank,
            wait_s: cost.wait_s,
            reduce_s: cost.active_s,
        });
        acc
    }
}

/// What a world records beyond the simulation itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldOptions {
    /// Enable per-rank telemetry registries and event sinks.
    pub instrument: bool,
    /// Enable per-rank message ledgers and simulated span timelines
    /// (implies `instrument`).  Tracing never feeds back into the clock,
    /// so traced and untraced runs produce bitwise-identical results.
    pub trace_ranks: bool,
}

/// Run an SPMD program: `nranks` threads each execute `f(rank)`; returns the
/// per-rank results in rank order.  Telemetry is disabled (zero overhead);
/// use [`run_world_with`] to profile or trace.
///
/// # Panics
/// Propagates any rank's panic.
pub fn run_world<R, F>(nranks: usize, machine: &MachineSpec, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Sync,
{
    run_world_with(nranks, machine, WorldOptions::default(), f)
}

/// Like [`run_world`] with explicit [`WorldOptions`]: `instrument` enables
/// per-rank telemetry/events (read each rank's profile back via
/// `rank.telemetry.snapshot()` inside `f`), `trace_ranks` additionally
/// attaches a [`RankTracer`] to each clock and an enabled [`MessageLedger`]
/// to each rank (read them back inside `f`, e.g. via `std::mem::take`).
pub fn run_world_with<R, F>(
    nranks: usize,
    machine: &MachineSpec,
    opts: WorldOptions,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Sync,
{
    let instrument = opts.instrument || opts.trace_ranks;
    assert!(nranks >= 1);
    // Build the channel mesh: channels[from][to].
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for from in 0..nranks {
        for to in 0..nranks {
            let (s, r) = channel();
            senders[from][to] = Some(s);
            receivers[to][from] = Some(r);
        }
    }
    let mut ranks: Vec<Rank> = senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(id, (tx, rx))| {
            let telemetry = if instrument {
                Registry::enabled(id)
            } else {
                Registry::disabled()
            };
            let mut clock = SimClock::new(machine.clone());
            if opts.trace_ranks {
                // Rank-labelled span paths are interned here, once per
                // (rank, label) — never formatted on the per-call path.
                clock.set_tracer(RankTracer::new(telemetry.clone(), id));
            }
            Rank {
                id,
                nranks,
                tx: tx.into_iter().map(Option::unwrap).collect(),
                rx: rx.into_iter().map(Option::unwrap).collect(),
                clock,
                telemetry,
                events: if instrument {
                    EventSink::enabled()
                } else {
                    EventSink::disabled()
                },
                ledger: if opts.trace_ranks {
                    MessageLedger::enabled(id)
                } else {
                    MessageLedger::disabled()
                },
            }
        })
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .iter_mut()
            .map(|rank| {
                let f = &f;
                scope.spawn(move || f(rank))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec::asci_red()
    }

    #[test]
    fn single_rank_runs() {
        let out = run_world(1, &machine(), |r| r.id() * 10);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn point_to_point_ring() {
        let p = 4;
        let out = run_world(p, &machine(), |r| {
            let next = (r.id() + 1) % r.nranks();
            let prev = (r.id() + r.nranks() - 1) % r.nranks();
            r.send(next, 7, vec![r.id() as f64]);
            let got = r.recv(prev, 7);
            got[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn allreduce_sum_agrees_with_sequential() {
        let p = 6;
        let out = run_world(p, &machine(), |r| r.allreduce_sum(&[r.id() as f64, 1.0]));
        for o in out {
            assert_eq!(o, vec![15.0, 6.0]);
        }
    }

    #[test]
    fn allreduce_max_takes_max() {
        let out = run_world(5, &machine(), |r| r.allreduce_max_scalar(r.id() as f64));
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn allreduce_is_deterministic_fp() {
        // Sums in fixed order: repeated runs must agree bitwise.
        let run = || {
            run_world(7, &machine(), |r| {
                let v = 0.1 * (r.id() as f64 + 1.0);
                r.allreduce_sum_scalar(v)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn imbalance_shows_up_as_implicit_sync() {
        let out = run_world(2, &machine(), |r| {
            if r.id() == 1 {
                // Rank 1 does 10x the compute.
                r.clock.compute(333e6, 0.0, 1.0);
            } else {
                r.clock.compute(33.3e6, 0.0, 1.0);
            }
            r.barrier();
            r.clock.breakdown()
        });
        assert!(out[0].implicit_sync > 0.8, "idle rank waits: {:?}", out[0]);
        assert!(
            out[1].implicit_sync < 1e-9,
            "busy rank never waits: {:?}",
            out[1]
        );
    }

    #[test]
    fn scatter_time_charged_on_receive() {
        let out = run_world(2, &machine(), |r| {
            if r.id() == 0 {
                r.send(1, 3, vec![1.0; 1000]);
                0.0
            } else {
                let _ = r.recv(0, 3);
                r.clock.breakdown().scatter
            }
        });
        assert!(out[1] > 0.0);
    }

    #[test]
    fn bytes_sent_accounted() {
        let out = run_world(2, &machine(), |r| {
            if r.id() == 0 {
                r.send(1, 1, vec![0.0; 128]);
            } else {
                let _ = r.recv(0, 1);
            }
            r.clock.bytes_sent
        });
        assert_eq!(out[0], 1024.0);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn tag_mismatch_panics() {
        run_world(2, &machine(), |r| {
            if r.id() == 0 {
                r.send(1, 1, vec![]);
            } else {
                let _ = r.recv(0, 2);
            }
        });
    }

    #[test]
    fn instrumented_world_records_collective_spans() {
        let opts = WorldOptions {
            instrument: true,
            trace_ranks: false,
        };
        let snaps = run_world_with(3, &machine(), opts, |r| {
            r.barrier();
            r.allreduce_sum_scalar(1.0);
            r.telemetry.snapshot()
        });
        let merged = fun3d_telemetry::merge(&snaps);
        // One barrier (which nests an allreduce) plus one bare allreduce.
        assert_eq!(merged.span("comm/barrier").unwrap().calls, 3);
        assert_eq!(merged.span("comm/barrier/comm/allreduce").unwrap().calls, 3);
        assert_eq!(merged.span("comm/allreduce").unwrap().calls, 3);
    }

    fn traced() -> WorldOptions {
        WorldOptions {
            instrument: true,
            trace_ranks: true,
        }
    }

    #[test]
    fn traced_world_builds_per_rank_timelines_and_ledgers() {
        let p = 3;
        let out = run_world_with(p, &machine(), traced(), |r| {
            r.clock.compute(33.3e6 * (r.id() + 1) as f64, 0.0, 1.0);
            let next = (r.id() + 1) % r.nranks();
            let prev = (r.id() + r.nranks() - 1) % r.nranks();
            r.send(next, 9, vec![r.id() as f64; 16]);
            let _ = r.recv(prev, 9);
            r.allreduce_sum_scalar(1.0);
            r.clock.flush_trace();
            let mut ledger = std::mem::take(&mut r.ledger);
            ledger.close(r.clock.now());
            (r.telemetry.snapshot(), ledger)
        });
        // One lane per rank with the four phase spans.
        for (rank, (snap, ledger)) in out.iter().enumerate() {
            assert!(snap.span(&format!("rank{rank}/compute")).is_some());
            assert_eq!(ledger.rank(), rank);
            assert_eq!(ledger.nsends(), 1);
            assert_eq!(ledger.nrecvs(), 1);
            assert_eq!(ledger.ncollectives(), 1);
            assert_eq!(ledger.bytes_sent(), 128.0);
            // Rank timeline is fully accounted: phases sum to the clock.
            let phases: f64 = ["compute", "scatter", "reduction", "wait"]
                .iter()
                .filter_map(|ph| snap.span(&format!("rank{rank}/{ph}")))
                .map(|s| s.total_s)
                .sum();
            assert!(
                (phases - ledger.finish_s()).abs() < 1e-9 * ledger.finish_s().max(1.0),
                "rank {rank}: phases {phases} != finish {}",
                ledger.finish_s()
            );
        }
        // Flows recorded on the receiving rank, one per p2p message.
        let snaps: Vec<_> = out.iter().map(|(s, _)| s.clone()).collect();
        let merged = fun3d_telemetry::merge(&snaps);
        assert_eq!(merged.flows.len(), p);
        // Collectives agree on the critical rank (the heavy last rank).
        for (_, ledger) in &out {
            let crit = ledger.ops().iter().find_map(|op| match op {
                crate::ranktrace::LedgerOp::Collective { critical_rank, .. } => {
                    Some(*critical_rank)
                }
                _ => None,
            });
            assert_eq!(crit, Some(p - 1));
        }
        // Critical path is consistent: parts sum to the end-to-end time.
        let ledgers: Vec<_> = out.into_iter().map(|(_, l)| l).collect();
        let cp = crate::ranktrace::critical_path(&ledgers);
        assert!(cp.total_s > 0.0);
        assert!((cp.accounted_s() - cp.total_s).abs() < 1e-9 * cp.total_s);
    }

    #[test]
    fn tracing_does_not_change_results_or_clocks() {
        let program = |r: &mut Rank| {
            r.clock.compute(3.33e6 * (r.id() + 1) as f64, 1e5, 0.8);
            let s = r.allreduce_sum_scalar(0.1 * (r.id() as f64 + 1.0));
            (s, r.clock.now(), r.clock.breakdown())
        };
        let plain = run_world(4, &machine(), program);
        let traced_out = run_world_with(4, &machine(), traced(), program);
        assert_eq!(plain, traced_out);
    }

    #[test]
    fn uninstrumented_world_has_disabled_ledgers() {
        let out = run_world(2, &machine(), |r| {
            if r.id() == 0 {
                r.send(1, 1, vec![0.0; 8]);
            } else {
                let _ = r.recv(0, 1);
            }
            r.allreduce_sum_scalar(1.0);
            (r.ledger.is_enabled(), r.ledger.ops().len())
        });
        assert!(out.iter().all(|&(enabled, n)| !enabled && n == 0));
    }

    #[test]
    fn uninstrumented_world_records_nothing() {
        let snaps = run_world(2, &machine(), |r| {
            r.barrier();
            r.telemetry.snapshot()
        });
        assert!(snaps.iter().all(|s| s.spans.is_empty()));
    }
}
