//! Graph algorithms used by the paper's composition examples: k-hop
//! expansion (the IC-query skeleton of §6.5) and Louvain community detection
//! (`tg_louvain`, used by query Q4 in §5.5).

use crate::actions::Direction;
use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use std::collections::{BTreeMap, HashMap};
use tv_common::{Tid, TvResult, VertexId};

impl Graph {
    /// Expand `seeds` along `etype`, a self-edge (e.g. `knows`), for `hops`
    /// hops and return every vertex reached (excluding the seeds unless
    /// revisited); for heterogeneous edges use [`Graph::expand`] per hop.
    pub fn k_hop(
        &self,
        seeds: &VertexSet,
        etype: u32,
        hops: usize,
        tid: Tid,
    ) -> TvResult<VertexSet> {
        let mut visited = seeds.clone();
        let mut frontier = seeds.clone();
        let mut reached = VertexSet::new();
        for _ in 0..hops {
            let next = self.expand(&frontier, etype, Direction::Out, None, tid)?;
            let fresh = next.minus(&visited);
            if fresh.is_empty() {
                break;
            }
            visited = visited.union(&fresh);
            reached = reached.union(&fresh);
            frontier = fresh;
        }
        Ok(reached)
    }

    /// Louvain community detection (Blondel et al. 2008) over one vertex
    /// type and one edge type, treating edges as undirected unit-weight.
    /// This is the single-level local-moving phase iterated to a fixed
    /// point, which is what Q4 needs: a community id per vertex. Returns
    /// `(community id per vertex, community count)`; ids are dense `0..n`.
    pub fn louvain(
        &self,
        vertex_type: u32,
        etype: u32,
        tid: Tid,
    ) -> TvResult<(HashMap<VertexId, usize>, usize)> {
        // Materialize the undirected adjacency.
        let vertices = self.all_vertices(vertex_type, tid)?;
        let nodes: Vec<VertexId> = vertices.of_type(vertex_type);
        let index_of: HashMap<VertexId, usize> =
            nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let edges = self.expand_edges(&vertices, etype, Direction::Out, None, tid)?;
        let mut m2 = 0usize; // 2 * |E| counted as total degree
        for (from, to) in edges {
            if let (Some(&a), Some(&b)) = (index_of.get(&from), index_of.get(&to)) {
                if a != b {
                    adj[a].push(b);
                    adj[b].push(a);
                    m2 += 2;
                }
            }
        }
        if m2 == 0 {
            // No edges: every vertex is its own community.
            let map = nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            return Ok((map, nodes.len()));
        }

        let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut community: Vec<usize> = (0..nodes.len()).collect();
        let mut community_degree: Vec<i64> = degree.iter().map(|&d| d as i64).collect();
        let m2f = m2 as f64;

        // Local moving to a fixed point (bounded rounds for safety).
        for _round in 0..32 {
            let mut moved = false;
            for v in 0..nodes.len() {
                let cur = community[v];
                // Links from v to each neighboring community, in community
                // order, so an equal gain goes to the same community on
                // every run.
                let mut links: BTreeMap<usize, usize> = BTreeMap::new();
                for &n in &adj[v] {
                    *links.entry(community[n]).or_insert(0) += 1;
                }
                // Remove v from its community for the gain computation.
                community_degree[cur] -= degree[v] as i64;
                let mut best = cur;
                let mut best_gain = 0.0f64;
                for (&cand, &k_in) in &links {
                    // Modularity gain of joining `cand`.
                    let gain = k_in as f64 / m2f
                        - (community_degree[cand] as f64 * degree[v] as f64)
                            / (m2f * m2f / 2.0)
                            / 2.0;
                    let base_links = links.get(&cur).copied().unwrap_or(0);
                    let base_gain = base_links as f64 / m2f
                        - (community_degree[cur] as f64 * degree[v] as f64)
                            / (m2f * m2f / 2.0)
                            / 2.0;
                    if gain > base_gain + 1e-12 && gain > best_gain {
                        best_gain = gain;
                        best = cand;
                    }
                }
                community_degree[best] += degree[v] as i64;
                if best != cur {
                    community[v] = best;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        // Renumber densely.
        let mut dense: HashMap<usize, usize> = HashMap::new();
        let mut out = HashMap::with_capacity(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            let next = dense.len();
            let c = *dense.entry(community[i]).or_insert(next);
            out.insert(v, c);
        }
        let count = dense.len();
        Ok((out, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_storage::{AttrType, AttrValue};
    use tv_common::ids::SegmentLayout;
    use tv_embedding::ServiceConfig;

    fn graph() -> (Graph, u32, u32) {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(16),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
                query_threads: 1,
                default_ef: 32,
            },
        );
        let person = g
            .create_vertex_type("Person", &[("name", AttrType::Str)])
            .unwrap();
        let knows = g.create_edge_type("knows", "Person", "Person").unwrap();
        (g, person, knows)
    }

    fn load(g: &Graph, person: u32, n: usize) -> Vec<VertexId> {
        let ids = g.allocate_many(person, n).unwrap();
        let mut txn = g.txn();
        for (i, &id) in ids.iter().enumerate() {
            txn = txn.upsert_vertex(person, id, vec![AttrValue::Str(format!("p{i}"))]);
        }
        txn.commit().unwrap();
        ids
    }

    fn connect(g: &Graph, person: u32, knows: u32, pairs: &[(usize, usize)], ids: &[VertexId]) {
        let mut txn = g.txn();
        for &(a, b) in pairs {
            txn = txn
                .add_edge(knows, person, ids[a], ids[b])
                .add_edge(knows, person, ids[b], ids[a]);
        }
        txn.commit().unwrap();
    }

    #[test]
    fn k_hop_chain() {
        let (g, person, knows) = graph();
        let ids = load(&g, person, 5);
        // Chain 0 -> 1 -> 2 -> 3 -> 4 (directed).
        let mut txn = g.txn();
        for w in ids.windows(2) {
            txn = txn.add_edge(knows, person, w[0], w[1]);
        }
        txn.commit().unwrap();
        let tid = g.read_tid();
        let seeds = VertexSet::from_iter_typed(person, [ids[0]]);
        let h1 = g.k_hop(&seeds, knows, 1, tid).unwrap();
        assert_eq!(h1.of_type(person), vec![ids[1]]);
        let h3 = g.k_hop(&seeds, knows, 3, tid).unwrap();
        assert_eq!(h3.len(), 3);
        // Hops beyond the chain length saturate.
        let h9 = g.k_hop(&seeds, knows, 9, tid).unwrap();
        assert_eq!(h9.len(), 4);
        // Seeds are not included.
        assert!(!h9.contains(person, ids[0]));
    }

    #[test]
    fn louvain_separates_two_cliques() {
        let (g, person, knows) = graph();
        let ids = load(&g, person, 8);
        // Two 4-cliques joined by a single bridge edge.
        let mut pairs = Vec::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                pairs.push((a, b));
                pairs.push((a + 4, b + 4));
            }
        }
        pairs.push((0, 4)); // bridge
        connect(&g, person, knows, &pairs, &ids);
        let tid = g.read_tid();
        let (communities, count) = g.louvain(person, knows, tid).unwrap();
        assert_eq!(communities.len(), 8);
        assert!(count >= 2, "expected at least 2 communities, got {count}");
        // Each clique must be internally consistent.
        for clique in [&ids[0..4], &ids[4..8]] {
            let c0 = communities[&clique[0]];
            assert!(clique.iter().all(|v| communities[v] == c0));
        }
        // And the two cliques in different communities.
        assert_ne!(communities[&ids[0]], communities[&ids[4]]);
    }

    /// A ring of eight offers equal gains at every move: the answer must
    /// not depend on hash order.
    #[test]
    fn louvain_is_deterministic_under_ties() {
        let (g, person, knows) = graph();
        let ids = load(&g, person, 8);
        let ring: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        connect(&g, person, knows, &ring, &ids);
        let tid = g.read_tid();
        let first = g.louvain(person, knows, tid).unwrap();
        for _ in 0..20 {
            assert_eq!(g.louvain(person, knows, tid).unwrap(), first);
        }
    }

    #[test]
    fn louvain_no_edges_singletons() {
        let (g, person, knows) = graph();
        let ids = load(&g, person, 4);
        let tid = g.read_tid();
        let (communities, count) = g.louvain(person, knows, tid).unwrap();
        assert_eq!(count, 4);
        let mut cs: Vec<usize> = ids.iter().map(|v| communities[v]).collect();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), 4);
    }

    #[test]
    fn louvain_ids_are_dense() {
        let (g, person, knows) = graph();
        let ids = load(&g, person, 6);
        connect(&g, person, knows, &[(0, 1), (1, 2), (3, 4), (4, 5)], &ids);
        let tid = g.read_tid();
        let (communities, count) = g.louvain(person, knows, tid).unwrap();
        let max = communities.values().copied().max().unwrap();
        assert_eq!(max + 1, count);
    }
}
