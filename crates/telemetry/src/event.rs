//! The structured event vocabulary: what a flight-recorder trace is made
//! of, and the [`TraceState`] abstraction that lets the [`Recorder`]
//! derive events from *any* state representation (structured enums and
//! packed words alike) by diffing per-agent [`AgentClass`]es.
//!
//! Events are derived at **block granularity**: the recorder sees
//! configurations at schedule-block boundaries (the engine's natural
//! observation points), so an event's timestamp `t` is the interaction
//! count at the end of the block in which the underlying transition
//! happened — the same overshoot convention the observer pipeline uses
//! for convergence times.
//!
//! [`Recorder`]: crate::Recorder

/// The trace-visible classification of one agent's state. Deliberately
/// coarse: just enough structure to derive the event taxonomy, cheap to
/// compute from a packed word (tag tests), and representation-agnostic
/// so enum and packed runs produce identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentClass {
    /// Holding the rank carried by the payload.
    Ranked(u64),
    /// In the reset protocol (propagating or dormant).
    Resetting,
    /// Running the embedded leader-election lottery.
    Electing,
    /// Main protocol, waiting room.
    Waiting,
    /// Main protocol, counting through phase `k`.
    Phase(u32),
}

/// Number of low key bits holding the class tag (see [`AgentClass::key`]).
const KEY_TAG_BITS: u32 = 4;
/// Shift of a `Ranked` key's rank (above the tag and one spare bit).
const KEY_RANK_SHIFT: u32 = KEY_TAG_BITS + 1;
/// Shift of a `Phase` key's phase number.
const KEY_PHASE_SHIFT: u32 = KEY_RANK_SHIFT + 16;
const KEY_RESETTING: u64 = 1;
const KEY_ELECTING: u64 = 2;
const KEY_WAITING: u64 = 4;
const KEY_PHASE: u64 = 8;

impl AgentClass {
    /// The key reserved for "no class seen yet": its tag bits are not
    /// one-hot, so no [`key`](AgentClass::key) ever equals it.
    pub const UNSEEN_KEY: u64 = u64::MAX;

    /// An injective `u64` encoding of the class, laid out like the
    /// packed state word so a packed lane can produce it with masks
    /// alone: `Ranked(r)` → `r << 5`, `Resetting` → 1, `Electing` → 2,
    /// `Waiting` → 4, `Phase(p)` → `8 | p << 21`. Two states have the
    /// same class exactly when their keys are equal.
    #[inline]
    pub fn key(self) -> u64 {
        match self {
            AgentClass::Ranked(r) => {
                debug_assert!(
                    r < 1 << (64 - KEY_RANK_SHIFT),
                    "rank {r} overflows the class key"
                );
                r << KEY_RANK_SHIFT
            }
            AgentClass::Resetting => KEY_RESETTING,
            AgentClass::Electing => KEY_ELECTING,
            AgentClass::Waiting => KEY_WAITING,
            AgentClass::Phase(p) => KEY_PHASE | (u64::from(p) << KEY_PHASE_SHIFT),
        }
    }

    /// Inverse of [`key`](AgentClass::key).
    ///
    /// # Panics
    ///
    /// Panics on a value no class encodes to (including
    /// [`UNSEEN_KEY`](AgentClass::UNSEEN_KEY)).
    #[inline]
    pub fn from_key(key: u64) -> Self {
        match key & ((1 << KEY_TAG_BITS) - 1) {
            0 => AgentClass::Ranked(key >> KEY_RANK_SHIFT),
            KEY_RESETTING => AgentClass::Resetting,
            KEY_ELECTING => AgentClass::Electing,
            KEY_WAITING => AgentClass::Waiting,
            KEY_PHASE => AgentClass::Phase((key >> KEY_PHASE_SHIFT) as u32),
            tag => unreachable!("class key {key:#x} has invalid tag {tag:#b}"),
        }
    }
}

/// States that can classify themselves for tracing. Implemented by
/// `StableState` and `PackedState` in the `ranking` crate; any protocol
/// wanting recorded runs implements this for its state type.
pub trait TraceState {
    /// This state's [`AgentClass`].
    fn agent_class(&self) -> AgentClass;

    /// This state's class key, `agent_class().key()`. The recorder
    /// compares keys on every agent after every block and decodes a
    /// class only where the key changed, so representations that can
    /// compute the key without building an [`AgentClass`] (packed
    /// words: one mask) should override this.
    #[inline]
    fn class_key(&self) -> u64 {
        self.agent_class().key()
    }
}

/// The `agent` field value for population-wide events (faults,
/// checkpoints) that are not about any single agent.
pub const NO_AGENT: u32 = u32::MAX;

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Interaction count at the end of the block where the event was
    /// observed (block-granular, see the module docs).
    pub t: u64,
    /// Global agent index, or [`NO_AGENT`] for population-wide events.
    pub agent: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy (see `docs/OBSERVABILITY.md` for the emission
/// rules and JSONL field layout of each kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The agent entered the reset protocol.
    Reset,
    /// The agent won the leader-election lottery and moved to the main
    /// protocol's waiting room (electing → waiting).
    Elected,
    /// The agent entered counting phase `phase` (from any other class,
    /// or from a different phase).
    PhaseEnter {
        /// The phase being entered.
        phase: u32,
    },
    /// The agent started holding `rank`.
    RankClaim {
        /// The rank claimed.
        rank: u64,
    },
    /// The agent stopped holding `rank`.
    RankRelease {
        /// The rank released.
        rank: u64,
    },
    /// A fault hook fired; `hit` agents changed class under it. The
    /// injector name is attached post-hoc (from the fault plan's firing
    /// log) via `Recorder::name_faults`.
    Fault {
        /// Number of agents whose class the fault visibly changed.
        hit: u32,
        /// Injector name, once attached.
        name: Option<&'static str>,
    },
    /// An observer checkpoint was polled.
    Checkpoint {
        /// Whether the run stopped at this checkpoint.
        stopping: bool,
    },
    /// A fresh agent joined a dynamic population's active lane.
    Join,
    /// An agent left a dynamic population for good (rank released by
    /// the engine into its free-list).
    Leave,
    /// An agent left the active lane but may return (rank reserved).
    Hibernate,
    /// A dormant agent re-entered the active lane.
    Revive,
}

impl EventKind {
    /// The kind's wire name (the JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Reset => "reset",
            EventKind::Elected => "elected",
            EventKind::PhaseEnter { .. } => "phase_enter",
            EventKind::RankClaim { .. } => "rank_claim",
            EventKind::RankRelease { .. } => "rank_release",
            EventKind::Fault { .. } => "fault",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Join => "join",
            EventKind::Leave => "leave",
            EventKind::Hibernate => "hibernate",
            EventKind::Revive => "revive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            EventKind::Reset,
            EventKind::Elected,
            EventKind::PhaseEnter { phase: 1 },
            EventKind::RankClaim { rank: 1 },
            EventKind::RankRelease { rank: 1 },
            EventKind::Fault { hit: 0, name: None },
            EventKind::Checkpoint { stopping: false },
            EventKind::Join,
            EventKind::Leave,
            EventKind::Hibernate,
            EventKind::Revive,
        ];
        let names: Vec<_> = kinds.iter().map(EventKind::name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn class_keys_roundtrip_and_never_collide_with_unseen() {
        let n = 1u64 << 20;
        let classes = [
            AgentClass::Ranked(1),
            AgentClass::Ranked(n),
            AgentClass::Ranked((1 << 59) - 1),
            AgentClass::Resetting,
            AgentClass::Electing,
            AgentClass::Waiting,
            AgentClass::Phase(0),
            AgentClass::Phase(1),
            AgentClass::Phase(0xFFFF),
            AgentClass::Phase(u32::MAX),
        ];
        for c in classes {
            assert_eq!(AgentClass::from_key(c.key()), c, "{c:?}");
            assert_ne!(c.key(), AgentClass::UNSEEN_KEY, "{c:?}");
        }
        let mut keys: Vec<u64> = classes.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), classes.len(), "keys must be injective");
        assert_eq!(AgentClass::Phase(3).key(), 8 | (3 << 21));
        assert_eq!(AgentClass::Ranked(7).key(), 7 << 5);
    }

    #[test]
    #[should_panic(expected = "invalid tag")]
    fn unseen_key_does_not_decode() {
        AgentClass::from_key(AgentClass::UNSEEN_KEY);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows the class key")]
    fn oversized_ranks_are_rejected() {
        AgentClass::Ranked(1 << 59).key();
    }
}
