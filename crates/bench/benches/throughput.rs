//! Engine-level benchmarks: interaction throughput per protocol.
//!
//! These measure the *implementation* (interactions per second), not the
//! paper's metric (interactions to stabilize) — the latter is hardware
//! independent and regenerated by the `bench` binaries. Throughput is
//! what bounds the reachable experiment scale (Figure 3 at `n = 2¹³`
//! needs ~10⁹ interactions). Run with `cargo bench -p bench`.

use std::hint::black_box;

use baselines::cai::CaiRanking;
use bench::timing::bench;
use population::primitives::epidemic::Epidemic;
use population::Simulator;
use ranking::stable::StableRanking;
use ranking::Params;

const BURST: u64 = 1_000_000;
const N: usize = 1024;

fn main() {
    {
        let protocol = StableRanking::new(Params::new(N));
        let init = protocol.initial();
        let mut sim = Simulator::new(protocol, init, 7);
        bench("stable_ranking_1m_interactions_n1024", BURST, 1, 10, || {
            sim.run_batched(BURST);
            black_box(sim.interactions());
        });
    }
    {
        let protocol = CaiRanking::new(N);
        let init = protocol.all_equal();
        let mut sim = Simulator::new(protocol, init, 7);
        bench("cai_1m_interactions_n1024", BURST, 1, 10, || {
            sim.run_batched(BURST);
            black_box(sim.interactions());
        });
    }
    {
        let protocol = Epidemic::new(N);
        let init = protocol.initial(N);
        let mut sim = Simulator::new(protocol, init, 7);
        bench("epidemic_1m_interactions_n1024", BURST, 1, 10, || {
            sim.run_batched(BURST);
            black_box(sim.interactions());
        });
    }
}
