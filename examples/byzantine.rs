//! Byzantine-agent walkthrough: persistent adversaries against
//! `StableRanking`.
//!
//! Transient faults (see `examples/fault_recovery.rs`) strike once and
//! Theorem 2 climbs back; a *Byzantine* agent never stops misbehaving.
//! This example wraps the protocol with `scenarios::byzantine`,
//! measures honest-subset stabilization under three adversary
//! strategies, and finishes with the exhaustive tiny-`n`
//! classification — including the formal proof that the *replacement*
//! model livelocks on even the mildest adversary.
//!
//! Run with: `cargo run --release --example byzantine`

use silent_ranking::population::{Packed, Simulator};
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::byzantine::{run_honest, Byzantine};
use silent_ranking::scenarios::{classify, ranking_byz};
use silent_ranking::shard::ShardedSimulator;

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

fn main() {
    let n = 32;
    let budget = 100_000_000;

    println!("== honest stabilization under one infiltrating adversary (n = {n} honest) ==");
    // The packed word path: the hot loop runs on u64 words; the
    // adversary manipulates words directly (PackedState::ranked,
    // PackedState::set_coin).
    for kind in ["crash", "lurker", "coin_jammer", "rank_squatter"] {
        let strategy = ranking_byz::standard_packed(kind, &protocol(n));
        let packed = Packed(protocol(n));
        let init = packed.pack_all(&packed.inner().initial());
        let byz = Byzantine::new(packed, strategy, 1, 7);
        let init = byz.init(init);
        let mut sim = Simulator::new(byz, init, 42);
        match run_honest(&mut sim, budget, n as u64) {
            Some(t) => {
                println!("  {kind:>13}: honest agents validly ranked after {t} interactions")
            }
            None => println!(
                "  {kind:>13}: never within {budget} interactions — the duplicate-forcing \
                 churn outruns every ranking round"
            ),
        }
    }

    // The same measurement through the sharded engine: run_honest
    // drives any engine, and HonestRanking reads the sharded
    // configuration in place.
    let strategy = ranking_byz::standard_packed("crash", &protocol(n));
    let packed = Packed(protocol(n));
    let init = packed.pack_all(&packed.inner().initial());
    let byz = Byzantine::new(packed, strategy, 1, 7);
    let init = byz.init(init);
    let mut sim = ShardedSimulator::new(byz, init, 42, 4);
    let t = run_honest(&mut sim, budget, n as u64).expect("crash is tolerated");
    println!("  crash, sharded×4: honest agents validly ranked after {t} interactions");

    println!();
    println!("== exhaustive classification at 3 honest agents (every adversary behavior) ==");
    for kind in ["crash", "lurker", "rank_squatter"] {
        for replace in [false, true] {
            let p = protocol(3);
            let strategy = ranking_byz::standard(kind, &p);
            let byz = if replace {
                Byzantine::replacing(p, strategy, 1, 1)
            } else {
                Byzantine::new(p, strategy, 1, 1)
            };
            let init = byz.init(protocol(3).initial());
            let c = classify(&byz, init, 1_000_000).expect("within cap");
            let model = if replace { "replace" } else { "infiltrate" };
            println!(
                "  {kind:>13} / {model:<10}: {:<16} ({} reachable, {} unrecoverable)",
                c.verdict.label(),
                c.reachable,
                c.unrecoverable
            );
        }
    }
    println!();
    println!(
        "note the crash/replace row: every reachable configuration is a dead end — \
         the phase geometry hard-codes n rank takers, so removing one honest agent \
         (even by the mildest fault) makes silent honest ranking structurally \
         unreachable. That is why Byzantine::new infiltrates instead of replacing."
    );
}
