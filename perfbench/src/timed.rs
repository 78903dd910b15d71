//! Timing wrappers around the solver's public traits.  The benchmark times
//! each layer from outside: the wrapped object does exactly what the inner
//! one does, and with timing off the wrapper adds one branch per call.

use fun3d_solver::op::{LinearOperator, PseudoTransientProblem};
use fun3d_solver::precond::Preconditioner;
use fun3d_sparse::csr::CsrMatrix;
use std::cell::Cell;
use std::time::Instant;

/// Calls and seconds spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Completed calls.
    pub calls: u64,
    /// Total wall seconds across the calls.
    pub seconds: f64,
}

fn timed<R>(on: bool, cell: &Cell<Tally>, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let mut t = cell.get();
    t.calls += 1;
    t.seconds += t0.elapsed().as_secs_f64();
    cell.set(t);
    out
}

/// A [`PseudoTransientProblem`] that tallies its `residual`, `jacobian` and
/// `inverse_timestep_scale` calls.
pub struct TimedProblem<P> {
    inner: P,
    on: bool,
    residual: Cell<Tally>,
    jacobian: Cell<Tally>,
    timestep: Cell<Tally>,
}

impl<P: PseudoTransientProblem> TimedProblem<P> {
    /// Wrap `inner`; `on = false` passes every call straight through.
    pub fn new(inner: P, on: bool) -> Self {
        Self {
            inner,
            on,
            residual: Cell::default(),
            jacobian: Cell::default(),
            timestep: Cell::default(),
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Residual tally.
    pub fn residual_tally(&self) -> Tally {
        self.residual.get()
    }

    /// Jacobian-assembly tally.
    pub fn jacobian_tally(&self) -> Tally {
        self.jacobian.get()
    }

    /// Timestep-scale tally.
    pub fn timestep_tally(&self) -> Tally {
        self.timestep.get()
    }
}

impl<P: PseudoTransientProblem> PseudoTransientProblem for TimedProblem<P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn residual(&self, q: &[f64], out: &mut [f64]) {
        timed(self.on, &self.residual, || self.inner.residual(q, out))
    }

    fn jacobian(&self, q: &[f64]) -> CsrMatrix {
        timed(self.on, &self.jacobian, || self.inner.jacobian(q))
    }

    fn inverse_timestep_scale(&self, q: &[f64]) -> Vec<f64> {
        timed(self.on, &self.timestep, || {
            self.inner.inverse_timestep_scale(q)
        })
    }

    fn set_second_order(&mut self, enable: bool) {
        self.inner.set_second_order(enable);
    }
}

/// A [`LinearOperator`] that tallies its `apply` calls.
pub struct TimedOp<'a, A: ?Sized> {
    inner: &'a A,
    tally: Cell<Tally>,
}

impl<'a, A: LinearOperator + ?Sized> TimedOp<'a, A> {
    /// Wrap `inner`.
    pub fn new(inner: &'a A) -> Self {
        Self {
            inner,
            tally: Cell::default(),
        }
    }

    /// Apply tally.
    pub fn tally(&self) -> Tally {
        self.tally.get()
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for TimedOp<'_, A> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        timed(true, &self.tally, || self.inner.apply(x, y))
    }

    fn traffic_bytes(&self) -> Option<f64> {
        self.inner.traffic_bytes()
    }
}

/// A [`Preconditioner`] that tallies its `apply` calls.
pub struct TimedPrec<'a, M: ?Sized> {
    inner: &'a M,
    tally: Cell<Tally>,
}

impl<'a, M: Preconditioner + ?Sized> TimedPrec<'a, M> {
    /// Wrap `inner`.
    pub fn new(inner: &'a M) -> Self {
        Self {
            inner,
            tally: Cell::default(),
        }
    }

    /// Apply tally.
    pub fn tally(&self) -> Tally {
        self.tally.get()
    }
}

impl<M: Preconditioner + ?Sized> Preconditioner for TimedPrec<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        timed(true, &self.tally, || self.inner.apply(r, z))
    }

    fn traffic_bytes(&self) -> Option<f64> {
        self.inner.traffic_bytes()
    }
}
