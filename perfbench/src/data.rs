//! Workload inputs, generated from the seed before any timed region.

use ams_datagen::uniform::UniformGenerator;
use ams_datagen::zipf::ZipfGenerator;
use ams_hash::SplitMix64;
use ams_stream::{value_blocks, DeletePattern, Multiset, Op, OpBlock, StreamBuilder};

use crate::util::BLOCK;

/// Per-insert delete probability: one delete per four inserts keeps
/// deletes at the paper's bound of 1/5 of all operations.
const CHURN: f64 = 0.25;

/// One attribute's update stream: its blocks and the exact multiset
/// they leave behind.
pub struct Relation {
    pub name: &'static str,
    pub blocks: Vec<OpBlock>,
    pub exact: Multiset,
}

impl Relation {
    pub fn ops(&self) -> u64 {
        self.blocks.iter().map(OpBlock::ops).sum()
    }

    fn from_ops(name: &'static str, ops: &[Op]) -> Self {
        let mut exact = Multiset::new();
        for &op in ops {
            exact.apply(op);
        }
        let blocks = ops
            .chunks(BLOCK)
            .map(|chunk| OpBlock::from_ops(chunk.iter().copied()))
            .collect();
        Self {
            name,
            blocks,
            exact,
        }
    }
}

/// The submission order of a multi-attribute workload: attributes
/// interleaved block by block, as `(attribute index, block)`.
pub fn interleave(relations: &[Relation]) -> Vec<(usize, &OpBlock)> {
    let longest = relations.iter().map(|r| r.blocks.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            relations
                .iter()
                .enumerate()
                .filter_map(move |(a, r)| r.blocks.get(i).map(|b| (a, b)))
        })
        .collect()
}

fn churn(values: &[u64], seed: u64) -> Vec<Op> {
    StreamBuilder::with_pattern(DeletePattern::RandomChurn { probability: CHURN }, seed)
        .build(values)
}

/// Insert-only zipf z = 1.0 over 2¹⁶ values.
pub fn zipf_inserts(seed: u64, n: usize) -> Relation {
    let values = ZipfGenerator::new(1 << 16, 1.0).generate(seed, n);
    Relation {
        name: "v",
        blocks: value_blocks(&values, BLOCK).collect(),
        exact: Multiset::from_values(values.iter().copied()),
    }
}

/// Uniform over 2²⁴ values with random-churn deletes.
pub fn uniform_churn(seed: u64, n: usize) -> Relation {
    let mut rng = SplitMix64::new(seed);
    let values = UniformGenerator::new(1 << 24).generate(rng.next_u64(), n);
    Relation::from_ops("v", &churn(&values, rng.next_u64()))
}

/// Two zipf z = 1.0 attributes `r` and `s` over 2¹⁶ values, independent
/// draws, each with random-churn deletes.
pub fn zipf_pair_churn(seed: u64, n: usize) -> [Relation; 2] {
    let mut rng = SplitMix64::new(seed);
    let zipf = ZipfGenerator::new(1 << 16, 1.0);
    ["r", "s"].map(|name| {
        let values = zipf.generate(rng.next_u64(), n);
        Relation::from_ops(name, &churn(&values, rng.next_u64()))
    })
}
