//! The run driver: the one loop behind every engine's `run*` methods.
//!
//! [`drive`] splits a run at the next interaction count where a hook or
//! the engine itself has something due; each engine implements the work
//! between two such counts once, in [`Engine::advance`]. At a shared
//! count the four hook slots run in this order:
//!
//! 1. **faults** — a [`FaultHook`] mutates the configuration; then the
//!    engine applies its own due events ([`Engine::settle`]).
//! 2. **saves** — a [`Checkpointer`] saves the post-fault [`Frame`] and
//!    the engine's [section](Capture::section).
//! 3. **poll** — an observer ([`Poll`]) may stop the run.
//! 4. **probe** — a read-only [`Probe`] sees every block, fault and poll;
//!    [`Probe::checkpoint`] fires once per poll, with `stopping` true
//!    exactly on the poll the run ends at.
//!
//! Every slot has a `const ACTIVE`; an inactive slot is never asked for a
//! due time, so its calls compile away. The split points are the union
//! of the active hooks' due times and the deadline, and nothing else: the
//! sequential and dynamic engines draw pairs FIFO, so their trajectories
//! do not depend on them, while the sharded trajectory does.

use crate::checkpoint::{Checkpointer, Frame, HookState};
use crate::observe::{Control, Observer};
use crate::probe::Probe;
use crate::protocol::Protocol;
use crate::sim::{FaultHook, StopReason};

/// The agent state type of engine `E`.
pub type StateOf<E> = <<E as Engine>::Protocol as Protocol>::State;

/// An executor the driver can advance: the per-engine half of a run.
pub trait Engine {
    /// The protocol the engine runs.
    type Protocol: Protocol;

    /// The protocol being simulated.
    fn protocol(&self) -> &Self::Protocol;

    /// Interactions executed so far.
    fn interactions(&self) -> u64;

    /// Execute exactly `count` interactions, reporting every executed
    /// block to `probe`. Hooks never fire inside an advance.
    fn advance<B: Probe<Self::Protocol>>(&mut self, count: u64, probe: &mut B);

    /// Run `f` on the whole configuration, read-only.
    fn view<R>(&self, f: impl FnOnce(&[StateOf<Self>]) -> R) -> R;

    /// Run `f` on the whole configuration and keep its mutations.
    fn edit(&mut self, f: impl FnOnce(&Self::Protocol, &mut [StateOf<Self>]));

    /// The engine's own next event strictly after the current count
    /// (after [`settle`](Engine::settle)), if it has any.
    fn next_event(&self) -> Option<u64> {
        None
    }

    /// Apply the engine's own events due at the current count.
    fn settle<B: Probe<Self::Protocol>>(&mut self, probe: &mut B) {
        let _ = probe;
    }
}

/// Engines whose position can be captured as a [`Frame`].
pub trait Capture: Engine {
    /// The run's position: interaction count, configuration words and
    /// scheduler cursors.
    fn frame(&self) -> Frame;

    /// The engine's state beyond the frame, as one opaque section (the
    /// dynamic engine's roster, free-lists and churn generator); empty
    /// for engines whose frame is their whole position.
    fn section(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// The saves slot of the hook set. Every [`Checkpointer`] fills it on an
/// engine that can [`Capture`] a frame, next to a fault hook whose state
/// it can export; [`NoSaves`] fills it everywhere else.
pub trait Saves<E, H> {
    /// `false` makes the driver skip the slot entirely.
    const ACTIVE: bool;

    /// The earliest count at or after `now` where a save is due.
    fn next_due(&mut self, now: u64) -> Option<u64>;

    /// Save the engine's current position.
    fn save(&mut self, engine: &E, faults: &H);
}

impl<E: Capture, H: HookState, C: Checkpointer> Saves<E, H> for C {
    const ACTIVE: bool = C::ACTIVE;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        Checkpointer::next_due(self, now)
    }

    fn save(&mut self, engine: &E, faults: &H) {
        let fault = faults.export_state();
        self.save_section(&engine.frame(), fault.as_ref(), &engine.section());
    }
}

/// The empty saves slot: valid on every engine and with every fault hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSaves;

impl<E, H> Saves<E, H> for NoSaves {
    const ACTIVE: bool = false;

    fn next_due(&mut self, _now: u64) -> Option<u64> {
        None
    }

    fn save(&mut self, _engine: &E, _faults: &H) {}
}

/// The poll slot of the hook set: a check run at the start of the run,
/// every [`every`](Poll::every) interactions after the previous poll, and
/// at the end of the run. The poll reads the engine and the fault hook.
pub trait Poll<E, H> {
    /// `false` makes the driver skip the slot entirely.
    const ACTIVE: bool = true;

    /// Interactions between two polls; must be positive.
    fn every(&self) -> u64;

    /// Poll at the engine's current count; [`Control::Stop`] ends the run.
    fn poll(&mut self, engine: &E, faults: &H) -> Control;
}

/// The empty poll slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPoll;

impl<E, H> Poll<E, H> for NoPoll {
    const ACTIVE: bool = false;

    fn every(&self) -> u64 {
        u64::MAX
    }

    fn poll(&mut self, _engine: &E, _faults: &H) -> Control {
        Control::Continue
    }
}

/// An [`Observer`] polled every `.0` interactions on the whole
/// configuration.
#[derive(Debug)]
pub struct Every<O>(pub u64, pub O);

impl<E: Engine, H, O: Observer<E::Protocol>> Poll<E, H> for Every<O> {
    fn every(&self) -> u64 {
        self.0
    }

    fn poll(&mut self, engine: &E, _faults: &H) -> Control {
        let t = engine.interactions();
        engine.view(|states| self.1.observe(engine.protocol(), t, states))
    }
}

/// Run `engine` for up to `count` interactions under the hook set
/// (`faults`, `saves`, `poll`, `probe`), splitting the run at the next
/// count where any active hook is due; see the [module docs](self) for
/// the order at a shared count. Hooks due when the run starts fire
/// before any interaction, and hooks due at the deadline fire before it
/// returns. The deadline saturates at `u64::MAX`.
///
/// Returns [`StopReason::Converged`] at the poll that stopped the run,
/// or [`StopReason::BudgetExhausted`].
///
/// # Panics
///
/// Panics if the poll is active and its cadence is zero.
pub fn drive<E, H, C, O, B>(
    engine: &mut E,
    count: u64,
    faults: &mut H,
    saves: &mut C,
    poll: &mut O,
    probe: &mut B,
) -> StopReason
where
    E: Engine,
    H: FaultHook<E::Protocol>,
    C: Saves<E, H>,
    O: Poll<E, H>,
    B: Probe<E::Protocol>,
{
    assert!(
        !O::ACTIVE || poll.every() > 0,
        "check_every must be positive"
    );
    let deadline = engine.interactions().saturating_add(count);
    let mut poll_due = engine.interactions();
    loop {
        let now = engine.interactions();
        // The hook contracts (fire and save advance past `now`) make
        // both loops finite.
        while H::ACTIVE && faults.next_fire(now).is_some_and(|t| t <= now) {
            engine.edit(|protocol, states| {
                faults.fire(protocol, now, states);
                if B::ACTIVE {
                    probe.fault(protocol, now, states);
                }
            });
        }
        engine.settle(probe);
        while C::ACTIVE && saves.next_due(now).is_some_and(|t| t <= now) {
            saves.save(engine, faults);
        }
        let end = now >= deadline;
        if O::ACTIVE && (end || poll_due <= now) {
            let stop = poll.poll(engine, faults).is_stop();
            if B::ACTIVE {
                probe.checkpoint(engine.protocol(), now, stop || end);
            }
            if stop {
                return StopReason::Converged(now);
            }
            poll_due = now.saturating_add(poll.every());
        }
        if end {
            return StopReason::BudgetExhausted;
        }
        let due = [
            H::ACTIVE.then(|| faults.next_fire(now)).flatten(),
            engine.next_event(),
            C::ACTIVE.then(|| saves.next_due(now)).flatten(),
            O::ACTIVE.then_some(poll_due),
        ];
        let next = due.into_iter().flatten().fold(deadline, u64::min);
        debug_assert!(next > now, "a hook is due in the past");
        engine.advance(next - now, probe);
    }
}
