//! Case generators shared by the integration test files.

use exes::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random small collaboration network plus a query over it.
pub fn arbitrary_graph(seed: u64) -> (CollabGraph, Query) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0xA5A5);
    let people = rng.gen_range(3usize..10);
    let skills = rng.gen_range(2usize..6);
    let mut builder = CollabGraphBuilder::new();
    let skill_names: Vec<String> = (0..skills).map(|i| format!("skill{i}")).collect();
    for name in &skill_names {
        builder.intern_skill(name);
    }
    for p in 0..people {
        let mut own: Vec<String> = skill_names
            .iter()
            .filter(|_| rng.gen_bool(0.35))
            .cloned()
            .collect();
        if own.is_empty() {
            own.push(skill_names[p % skills].clone());
        }
        builder.add_person(&format!("p{p}"), own);
    }
    let edge_attempts = rng.gen_range(people..4 * people);
    for _ in 0..edge_attempts {
        let a = PersonId::from_index(rng.gen_range(0..people));
        let b = PersonId::from_index(rng.gen_range(0..people));
        if a != b {
            builder.add_edge(a, b);
        }
    }
    let graph = builder.build();
    let qlen = rng.gen_range(1usize..=2.min(skills));
    let qskills: Vec<SkillId> = (0..qlen)
        .map(|i| graph.vocab().id(&format!("skill{i}")).unwrap())
        .collect();
    let query = Query::new(qskills).unwrap();
    (graph, query)
}
