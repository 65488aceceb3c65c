//! Entity sharding: the partition of the schema across shards.
//!
//! Shard `s` owns every entity whose global index is `≡ s (mod S)`; inside
//! a shard, entities are renumbered densely (`local = global / S`). Each
//! shard worker runs a [`ProtocolManager`](ks_protocol::ProtocolManager)
//! over its **sub-schema** only, so the phased state machine stays
//! single-writer per shard while sessions speak global [`EntityId`]s.

use crate::ServerError;
use ks_core::Specification;
use ks_kernel::{EntityId, Schema, SchemaBuilder, UniqueState};
use ks_predicate::{Atom, Clause, Cnf, Operand};

/// The static entity → shard partition for one service instance.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    subs: Vec<Schema>,
}

impl ShardMap {
    /// Partition `schema` across `shards` workers (clamped to `[1, |E|]`).
    pub fn new(schema: &Schema, shards: usize) -> Self {
        let shards = shards.clamp(1, schema.len().max(1));
        let mut builders: Vec<SchemaBuilder> = (0..shards).map(|_| SchemaBuilder::new()).collect();
        for e in schema.entity_ids() {
            builders[e.index() % shards].entity(schema.name(e), schema.domain(e).clone());
        }
        let subs = builders
            .into_iter()
            .map(|b| b.build().expect("global names are unique"))
            .collect();
        ShardMap { shards, subs }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning global entity `e`.
    pub fn shard_of(&self, e: EntityId) -> usize {
        e.index() % self.shards
    }

    /// Global id → the owning shard's dense local id.
    pub fn to_local(&self, e: EntityId) -> EntityId {
        EntityId((e.index() / self.shards) as u32)
    }

    /// A shard's dense local id → global id.
    pub fn to_global(&self, shard: usize, local: EntityId) -> EntityId {
        EntityId((local.index() * self.shards + shard) as u32)
    }

    /// The sub-schema shard `shard` serves.
    pub fn sub_schema(&self, shard: usize) -> &Schema {
        &self.subs[shard]
    }

    /// Project the global initial state onto a shard's entities.
    pub fn sub_initial(&self, shard: usize, global: &UniqueState) -> UniqueState {
        let values = (0..self.subs[shard].len())
            .map(|i| global.get(self.to_global(shard, EntityId(i as u32))))
            .collect();
        UniqueState::new(&self.subs[shard], values).expect("projection preserves domains")
    }

    /// The single shard a specification's entities live on, or
    /// [`ServerError::CrossShard`]. Entity-free (trivial) specifications
    /// land on shard 0.
    pub fn home_shard(&self, spec: &Specification) -> Result<usize, ServerError> {
        let mut home: Option<usize> = None;
        for e in spec
            .input
            .entities()
            .into_iter()
            .chain(spec.output.entities())
        {
            let s = self.shard_of(e);
            match home {
                None => home = Some(s),
                Some(h) if h != s => return Err(ServerError::CrossShard),
                Some(_) => {}
            }
        }
        Ok(home.unwrap_or(0))
    }

    /// Rewrite a global-id specification into `shard`'s local ids.
    pub fn localize_spec(&self, shard: usize, spec: &Specification) -> Specification {
        Specification::new(
            self.localize_cnf(shard, &spec.input),
            self.localize_cnf(shard, &spec.output),
        )
    }

    fn localize_cnf(&self, shard: usize, cnf: &Cnf) -> Cnf {
        let localize = |op: Operand| match op {
            Operand::Entity(e) => {
                debug_assert_eq!(self.shard_of(e), shard);
                Operand::Entity(self.to_local(e))
            }
            c @ Operand::Const(_) => c,
        };
        Cnf::new(
            cnf.clauses()
                .iter()
                .map(|clause| {
                    Clause::new(
                        clause
                            .atoms()
                            .iter()
                            .map(|a| Atom {
                                lhs: localize(a.lhs),
                                op: a.op,
                                rhs: localize(a.rhs),
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::Domain;
    use ks_predicate::parse_cnf;

    fn schema6() -> Schema {
        Schema::uniform(
            ["a", "b", "c", "d", "e", "f"],
            Domain::Range { min: 0, max: 9 },
        )
    }

    #[test]
    fn round_trips_ids_and_partitions_evenly() {
        let map = ShardMap::new(&schema6(), 4);
        assert_eq!(map.shards(), 4);
        for e in schema6().entity_ids() {
            let s = map.shard_of(e);
            assert_eq!(map.to_global(s, map.to_local(e)), e);
        }
        // 6 entities over 4 shards: sizes 2,2,1,1.
        let sizes: Vec<usize> = (0..4).map(|s| map.sub_schema(s).len()).collect();
        assert_eq!(sizes, vec![2, 2, 1, 1]);
        // Shard 0 owns a (global 0) and e (global 4), densely renumbered.
        assert_eq!(map.sub_schema(0).name(EntityId(0)), "a");
        assert_eq!(map.sub_schema(0).name(EntityId(1)), "e");
    }

    #[test]
    fn clamps_shard_count() {
        assert_eq!(ShardMap::new(&schema6(), 0).shards(), 1);
        assert_eq!(ShardMap::new(&schema6(), 99).shards(), 6);
    }

    #[test]
    fn sub_initial_projects() {
        let schema = schema6();
        let map = ShardMap::new(&schema, 2);
        let global = UniqueState::new(&schema, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let s0 = map.sub_initial(0, &global);
        let s1 = map.sub_initial(1, &global);
        assert_eq!(s0.values(), &[1, 3, 5]);
        assert_eq!(s1.values(), &[2, 4, 6]);
    }

    #[test]
    fn home_shard_detects_spanning_specs() {
        let schema = schema6();
        let map = ShardMap::new(&schema, 2);
        // a (0) and c (2) are both shard 0.
        let same = Specification::new(
            parse_cnf(&schema, "a = 1").unwrap(),
            parse_cnf(&schema, "c > 0").unwrap(),
        );
        assert_eq!(map.home_shard(&same), Ok(0));
        // a (shard 0) with b (shard 1) spans.
        let spanning =
            Specification::new(parse_cnf(&schema, "a = 1 & b = 2").unwrap(), Cnf::truth());
        assert_eq!(map.home_shard(&spanning), Err(ServerError::CrossShard));
        assert_eq!(map.home_shard(&Specification::trivial()), Ok(0));
    }

    #[test]
    fn localize_rewrites_entities() {
        let schema = schema6();
        let map = ShardMap::new(&schema, 2);
        // c is global 2 → shard 0 local 1; e is global 4 → shard 0 local 2.
        let spec = Specification::new(
            parse_cnf(&schema, "(c = 3 | e < 9)").unwrap(),
            parse_cnf(&schema, "a >= 0").unwrap(),
        );
        let local = map.localize_spec(0, &spec);
        let sub = map.sub_schema(0);
        assert_eq!(local.input.display_with(sub), "(c = 3 | e < 9)");
        assert_eq!(local.output.display_with(sub), "(a >= 0)");
        let entities = local.input.entities();
        assert!(entities.contains(&EntityId(1)) && entities.contains(&EntityId(2)));
    }
}
