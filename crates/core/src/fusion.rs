//! Codebook-centric hierarchical fusion (paper §VI-B, Alg. 1).
//!
//! Default fusion moves dequantized data through shared memory when its
//! layout does not match what the computation consumes (Fig. 6's V-cache
//! round-trip). Register-level fusion instead rearranges the data in place
//! with warp shuffles — but only pays off while the shuffle count is small:
//! profiling puts one shared-memory round-trip at ≈5× the cost of a
//! register access + shuffle, so the engine fuses in registers when fewer
//! than five shuffles suffice and falls back to shared memory otherwise.
//!
//! The shuffle count for a vector size `v` and a required per-thread layout
//! of `l` elements is `v/l − 1` (Fig. 12: `v = 8`, `l = 2` → mini-warps of
//! 4 lanes, 3 `shfl_xor` rounds).

use std::collections::BTreeMap;
use vqllm_gpu::warp::{Warp, WARP_SIZE};

/// Shared-memory round-trip ≈ 5× register+shuffle (profiled constant the
/// paper uses as the fusion threshold).
pub const SHUFFLE_THRESHOLD: usize = 5;

/// Where the dequantize→compute hand-off happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionLevel {
    /// Registers, via `shuffles` warp-shuffle rounds.
    Register {
        /// `shfl_xor` rounds per dequantized fragment.
        shuffles: usize,
    },
    /// Shared memory (the default fusion), with a store+load round-trip.
    Shared,
}

/// Shuffle rounds needed to convert a `vector_size` dequantization layout
/// into a `required_layout` compute layout (0 when they already match).
pub fn num_shuffles(vector_size: usize, required_layout: usize) -> usize {
    assert!(vector_size > 0 && required_layout > 0);
    (vector_size / required_layout.min(vector_size)).saturating_sub(1)
}

/// The adaptive fusion choice (paper §VI-B "Adaptivity").
pub fn choose_fusion(vector_size: usize, required_layout: usize) -> FusionLevel {
    let n = num_shuffles(vector_size, required_layout);
    if n == 0 {
        // Layouts already agree: register fusion with no shuffling.
        FusionLevel::Register { shuffles: 0 }
    } else if n < SHUFFLE_THRESHOLD {
        FusionLevel::Register { shuffles: n }
    } else {
        FusionLevel::Shared
    }
}

/// The dequant→compute association of one element within a warp tile
/// (Alg. 1's input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementAssoc {
    /// Lane that dequantizes the element.
    pub dequant_tid: usize,
    /// Lane that consumes it in the computation.
    pub compute_tid: usize,
}

/// The offline thread remapping of Alg. 1: mini-warps plus the permutation
/// of dequantization duties that confines all exchanges to each mini-warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadMapping {
    /// Groups of lanes whose data only moves within the group.
    pub mini_warps: Vec<Vec<usize>>,
    /// `new_duty[new_lane] = old_lane` whose dequantization work the lane
    /// takes over (Alg. 1 lines 10-11).
    pub new_duty: Vec<usize>,
}

impl ThreadMapping {
    /// Runs Alg. 1 (lines 1-11) over the element association list.
    ///
    /// Lanes whose dequantized data feeds the same set of compute lanes are
    /// grouped into a mini-warp (lines 4-9); mini-warps are then laid out
    /// contiguously so the exchange masks stay below the mini-warp size
    /// (lines 10-11).
    ///
    /// # Panics
    ///
    /// Panics if the association references lanes ≥ 32.
    pub fn from_association(assoc: &[ElementAssoc]) -> Self {
        // dequant lane -> sorted set of compute lanes needing its data.
        let mut needs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in assoc {
            assert!(e.dequant_tid < WARP_SIZE && e.compute_tid < WARP_SIZE);
            let v = needs.entry(e.dequant_tid).or_default();
            if !v.contains(&e.compute_tid) {
                v.push(e.compute_tid);
            }
        }
        for v in needs.values_mut() {
            v.sort_unstable();
        }

        // Group dequant lanes by identical compute-lane sets (lines 5-9).
        let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
        for (lane, key) in needs {
            groups.entry(key).or_default().push(lane);
        }

        let mini_warps: Vec<Vec<usize>> = groups.into_values().collect();
        // Remap duties: mini-warp k occupies lanes [k·m, (k+1)·m).
        let mut new_duty = Vec::with_capacity(WARP_SIZE);
        for mw in &mini_warps {
            new_duty.extend(mw.iter().copied());
        }
        ThreadMapping {
            mini_warps,
            new_duty,
        }
    }

    /// The canonical association for a fused GeMM warp tile: a warp
    /// dequantizes `32 × vector_size` consecutive elements (each lane one
    /// sub-vector) and the computation consumes `required_layout`-element
    /// fragments round-robin across lanes (the `mma` operand layout of
    /// Fig. 12).
    pub fn canonical(vector_size: usize, required_layout: usize) -> Self {
        let assoc: Vec<ElementAssoc> = (0..WARP_SIZE * vector_size)
            .map(|e| ElementAssoc {
                dequant_tid: e / vector_size,
                compute_tid: (e / required_layout) % WARP_SIZE,
            })
            .collect();
        Self::from_association(&assoc)
    }

    /// Size of each mini-warp (they are uniform for the canonical
    /// association).
    pub fn mini_warp_size(&self) -> usize {
        self.mini_warps.first().map_or(1, Vec::len)
    }
}

/// Executes register-level fusion on a warp (Alg. 1 lines 12-15): rounds
/// `1..=shuffles` of the indexed xor exchange. After this, each lane's
/// register file holds the compute-ordered fragments.
///
/// # Errors
///
/// Propagates [`vqllm_gpu::GpuError`] for invalid masks (shuffles ≥ 32).
pub fn reg_fusion(warp: &mut Warp, shuffles: usize) -> vqllm_gpu::Result<()> {
    for mask in 1..=shuffles {
        warp.shfl_xor_indexed(mask)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_counts_match_table_v() {
        // Tbl. V "#Shuffle" row: QuiP#/AQLM (v=8): GeMM 3, GeMV 7;
        // GPTVQ (v=4): GeMM 1, GeMV 3; CQ-2 (v=4): attention 3.
        assert_eq!(num_shuffles(8, 2), 3);
        assert_eq!(num_shuffles(8, 1), 7);
        assert_eq!(num_shuffles(4, 2), 1);
        assert_eq!(num_shuffles(4, 1), 3);
        assert_eq!(num_shuffles(2, 1), 1);
        assert_eq!(num_shuffles(2, 2), 0);
    }

    #[test]
    fn fusion_choice_uses_the_five_x_threshold() {
        // 3 shuffles < 5 → register fusion (GeMM with v=8).
        assert_eq!(choose_fusion(8, 2), FusionLevel::Register { shuffles: 3 });
        // 7 shuffles ≥ 5 → shared fusion (GeMV with v=8, §VII-C's O4
        // regression case).
        assert_eq!(choose_fusion(8, 1), FusionLevel::Shared);
        // Matching layouts need nothing.
        assert_eq!(choose_fusion(2, 2), FusionLevel::Register { shuffles: 0 });
    }

    #[test]
    fn canonical_mapping_forms_uniform_mini_warps() {
        let tm = ThreadMapping::canonical(8, 2);
        assert_eq!(tm.mini_warps.len(), 8);
        for mw in &tm.mini_warps {
            assert_eq!(mw.len(), 4, "v/l = 4 lanes per mini-warp");
        }
        // Every lane appears exactly once in the new duty permutation.
        let mut seen = [false; WARP_SIZE];
        for &l in &tm.new_duty {
            assert!(!seen[l]);
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn paper_example_mini_warp_grouping() {
        // Fig. 12's pathology: with the naive association, lanes 0, 8, 16,
        // 24 all feed compute lanes {0,1,2,3} — Alg. 1 must group them.
        let tm = ThreadMapping::canonical(8, 2);
        let mw0 = tm
            .mini_warps
            .iter()
            .find(|mw| mw.contains(&0))
            .expect("lane 0 is somewhere");
        assert_eq!(mw0, &vec![0, 8, 16, 24]);
    }

    #[test]
    fn matching_layout_is_identity() {
        let tm = ThreadMapping::canonical(2, 2);
        assert_eq!(tm.mini_warps.len(), 32);
        assert_eq!(tm.mini_warp_size(), 1);
    }

    #[test]
    fn reg_fusion_transposes_mini_warps() {
        // After remapping, each mini-warp of m lanes holds m fragments per
        // lane; reg_fusion must transpose them (validated against the
        // direct index formula).
        let m = 4;
        let mut w = Warp::new(m);
        for lane in 0..WARP_SIZE {
            for r in 0..m {
                w.set(lane, r, (lane * 100 + r) as f32);
            }
        }
        reg_fusion(&mut w, m - 1).unwrap();
        for lane in 0..WARP_SIZE {
            let base = lane & !(m - 1);
            for r in 0..m {
                assert_eq!(w.get(lane, r), ((base + r) * 100 + (lane & (m - 1))) as f32);
            }
        }
        assert_eq!(w.shuffles_issued(), m - 1);
    }

    #[test]
    fn zero_shuffles_is_a_noop() {
        let mut w = Warp::new(2);
        w.set(3, 1, 9.0);
        let before = w.snapshot();
        reg_fusion(&mut w, 0).unwrap();
        assert_eq!(w.snapshot(), before);
    }
}
