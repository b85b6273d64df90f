//! Moderate-scale end-to-end checks: the algorithms stay correct and
//! usable on workloads well beyond the paper's toy instance (Sec 6's
//! "large schemas / large data volumes" concern). Sizes are chosen to
//! keep the suite under a few seconds in debug builds.

use clio::prelude::*;

fn funcs() -> FuncRegistry {
    FuncRegistry::with_builtins()
}

#[test]
fn fd_algorithms_agree_on_a_wide_star_with_data() {
    let w = generate(&SyntheticSpec {
        topology: Topology::Star,
        relations: 6,
        rows: 120,
        match_rate: 0.6,
        payload_attrs: 1,
        seed: 99,
    });
    let funcs = funcs();
    let mut a = full_disjunction_naive(&w.db, &w.graph, &funcs, engine_subsumption()).unwrap();
    let mut b = full_disjunction_outer_join(&w.db, &w.graph, &funcs).unwrap();
    a.sort_canonical(&w.graph);
    b.sort_canonical(&w.graph);
    assert_eq!(a.table().rows(), b.table().rows());
    assert!(a.len() >= 120); // at least every hub row appears
}

#[test]
fn long_chain_mapping_end_to_end() {
    let w = generate(&SyntheticSpec {
        topology: Topology::Chain,
        relations: 10,
        rows: 60,
        match_rate: 0.75,
        payload_attrs: 1,
        seed: 5,
    });
    let funcs = funcs();
    let out = w.mapping.evaluate(&w.db, &funcs).unwrap();
    assert!(!out.is_empty());
    // every produced tuple has the required B0
    let b0 = 0;
    assert!(out.rows().iter().all(|r| !r[b0].is_null()));

    // illustrations stay small even though D(G) is large
    let population = w.mapping.examples(&w.db, &funcs).unwrap();
    let ill = Illustration::minimal_sufficient(&population, w.mapping.target.arity());
    assert!(is_sufficient(
        &ill.examples,
        &population,
        w.mapping.target.arity(),
        SufficiencyScope::mapping()
    ));
    // the illustration scales with the number of coverage categories
    // (≤ 55 for a 10-chain), not with the data volume
    let categories: std::collections::HashSet<u64> =
        population.iter().map(|e| e.coverage).collect();
    assert!(
        ill.len() <= categories.len() * 2,
        "illustration ({}) should scale with categories ({}), not rows ({})",
        ill.len(),
        categories.len(),
        population.len()
    );
    assert!(ill.len() < population.len());
}

#[test]
fn session_on_a_large_synthetic_source() {
    let w = generate(&SyntheticSpec {
        topology: Topology::RandomTree,
        relations: 8,
        rows: 150,
        match_rate: 0.8,
        payload_attrs: 2,
        seed: 21,
    });
    let mut db = w.db.clone();
    // redeclare knowledge edges as FKs so the session can walk
    for s in w.knowledge.specs() {
        db.constraints
            .foreign_keys
            .push(clio::relational::constraints::ForeignKey {
                from_relation: s.rel_a.clone(),
                from_attrs: s.attr_pairs.iter().map(|(a, _)| a.clone()).collect(),
                to_relation: s.rel_b.clone(),
                to_attrs: s.attr_pairs.iter().map(|(_, b)| b.clone()).collect(),
            });
    }
    let mut session = Session::new(db, w.target.clone());
    session.add_correspondence("R0.p0", "B0").unwrap();
    // walk outward to every other relation, confirming the first
    // alternative each time
    for i in 1..8 {
        let rel = format!("R{i}");
        if session
            .active()
            .unwrap()
            .mapping
            .graph
            .node_by_alias(&rel)
            .is_some()
        {
            continue;
        }
        let ids = session.data_walk(None, &rel).unwrap();
        session.confirm(ids[0]).unwrap();
        session
            .add_correspondence(&format!("R{i}.p0"), &format!("B{i}"))
            .unwrap();
    }
    let preview = session.target_preview().unwrap();
    assert!(preview.len() >= 150);
    // the final graph covers all 8 relations
    assert_eq!(session.active().unwrap().mapping.graph.node_count(), 8);
    // and its illustration is synchronized and sufficient
    let w2 = session.active().unwrap();
    let population = w2.mapping.examples(session.database(), &funcs()).unwrap();
    assert!(is_sufficient(
        &w2.illustration.examples,
        &population,
        w2.mapping.target.arity(),
        SufficiencyScope::mapping()
    ));
}

#[test]
fn chase_scales_with_a_value_index() {
    let w = generate(&SyntheticSpec {
        topology: Topology::Chain,
        relations: 4,
        rows: 2000,
        match_rate: 0.9,
        payload_attrs: 1,
        seed: 31,
    });
    let index = ValueIndex::build(&w.db);
    let funcs = funcs();
    let mut g = QueryGraph::new();
    g.add_node(Node::new("R0")).unwrap();
    let m = Mapping::new(g, w.target.clone())
        .with_correspondence(ValueCorrespondence::identity("R0.p0", "B0"));
    // chase a hub id: occurrences live in R1.l0
    let alts = data_chase(&m, &w.db, &index, "R0", "id", &Value::str("r0-10"), &funcs).unwrap();
    for alt in &alts {
        assert!(alt.mapping.graph.node_count() == 2);
        assert!(alt.occurrence_count >= 1);
    }
}

#[test]
fn mining_scales_and_stays_consistent() {
    let w = generate(&SyntheticSpec {
        topology: Topology::Chain,
        relations: 5,
        rows: 500,
        match_rate: 1.0, // strict containment guaranteed
        payload_attrs: 1,
        seed: 77,
    });
    let config = clio::core::mining::MiningConfig {
        min_containment: 0.9,
        min_shared_values: 5,
        require_same_type: true,
    };
    let mined = clio::core::mining::mine_inclusion_dependencies(&w.db, &config);
    // every chain link is rediscovered
    for i in 0..4 {
        assert!(
            mined
                .iter()
                .any(|d| d.from == (format!("R{}", i + 1), format!("l{i}"))
                    && d.to == (format!("R{i}"), "id".into())),
            "link R{}.l{i} -> R{i}.id not mined",
            i + 1
        );
    }
}
