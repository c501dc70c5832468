//! The pre-decoded form of a compute-ensemble body: each straight-line
//! segment resolved to its compiled recipes plus precomputed cost
//! annotations.
//!
//! [`crate::CompiledRecipe`] removed per-micro-op plane resolution, but
//! executing a body one instruction at a time still pays, per instruction
//! and per wave pass, three cost-model walks over the micro-op list
//! (`recipe_cycles`, `recipe_stage_cycles`, `recipe_energy_pj` — each a
//! `BTreeMap` lookup per op) plus the fetch/dispatch loop. For a RACER
//! `ADD` that is ~3×641 map walks per wave to move 64 lanes — the cost
//! model dominates the word arithmetic.
//!
//! [`fuse_segment_with`] hoists all of it to synthesis time. A body is
//! split only at its control transfers (`JUMP_COND`, `JUMP`, `RETURN`) and
//! its `COMPUTE_DONE`; every piece in between (compute instructions, mask
//! writes and readouts, NOPs) becomes a [`BodySegment`]:
//!
//! * each compute step holds its instruction's shared, already compiled
//!   recipe — no op is copied — and a run of steps between mask writes
//!   executes in one pass per VRF through the same word-loop core as
//!   [`crate::CompiledRecipe`] (so plane writes are byte-identical);
//! * per-step issue cycles precomputed for both pipeline states — a
//!   compute step pays serial latency when it is the first of its wave
//!   pass and stage time otherwise on bit-pipelined backends, and which
//!   one applies to a segment's first compute step depends on the control
//!   path that reached it;
//! * per-step energy with every lane enabled precomputed, and the per-lane
//!   energy of each micro-op kind tabulated, so partial-mask energy is
//!   `Σ coeff × enabled_lanes` over the recipe's micro-ops in order —
//!   bit-identical f64 accumulation to the cost model's sum.
//!
//! A segment is a pure function of `(recipe context, encoded segment,
//! geometry)` and is cached by the simulator's recipe pool/cache under
//! exactly that key. It carries *costs*, not charges: the simulator
//! replays the steps and applies the `Stats` mutations per-instruction
//! execution would, so architectural counters never depend on how a
//! segment was stepped.

use crate::bitplane::{BitPlaneVrf, SCRATCH_PLANES};
use crate::compiled::{self, CompiledOp, CompiledRecipe};
use crate::datapath::DatapathModel;
use crate::microop::MicroOpKind;
use crate::recipe::Recipe;
use crate::DATA_BITS;
use mpu_isa::{Instruction, RegId};
use std::ops::Range;
use std::sync::Arc;

/// One body instruction of a fused [`BodySegment`].
#[derive(Debug, Clone)]
pub enum SegmentStep {
    /// A compute instruction: its compiled recipe plus precomputed costs.
    Compute {
        /// The source instruction (recipe-cache accounting, mnemonics).
        instr: Instruction,
        /// The instruction's recipe (partial-mask energy walks its ops),
        /// shared with the recipe memo.
        recipe: Arc<Recipe>,
        /// The recipe's compiled form, shared with the recipe memo.
        compiled: Arc<CompiledRecipe>,
        /// Issue cycles when this is the first compute instruction of a
        /// wave pass (the pipeline is empty): the recipe's serial latency.
        serial: u64,
        /// Issue cycles with the bit pipeline warm: the recipe's stage
        /// time on bit-pipelined backends, its serial latency otherwise.
        warm: u64,
        /// Micro-op count of the underlying recipe.
        uops: u32,
        /// Micro-ops the recipe optimizer removed from this step's recipe
        /// ([`crate::Recipe::saved_uops`]).
        saved: u32,
        /// Recipe energy with every lane enabled (the common case),
        /// precomputed by the same per-op summation the partial-mask
        /// path performs at runtime.
        energy_full_pj: f64,
    },
    /// `GETMASK rd`: the mask plane copied into bit 0 of `rd`, bits 1..63
    /// cleared (see [`BitPlaneVrf::copy_mask_to`]).
    GetMask {
        /// Destination register.
        rd: RegId,
    },
    /// `SETMASK rs`: load the lane mask from a register (or `COND`).
    SetMask {
        /// Source register (`COND_REG` selects the condition plane).
        rs: RegId,
    },
    /// `UNMASK`: re-enable every lane.
    Unmask,
    /// `NOP`: a control bubble.
    Nop,
}

impl SegmentStep {
    /// True for the steps that write the mask plane (`SETMASK`,
    /// `UNMASK`); every other step leaves it — and with it each VRF's
    /// enabled-lane count — unchanged.
    pub fn writes_mask(&self) -> bool {
        matches!(self, SegmentStep::SetMask { .. } | SegmentStep::Unmask)
    }
}

/// A straight-line segment of a compute-ensemble body, decoded once: the
/// steps with their compiled recipes and precomputed costs. Built by
/// [`fuse_segment_with`]; executed with [`BodySegment::run_steps`] and
/// costed with [`BodySegment::step_energy_pj`].
#[derive(Debug, Clone)]
pub struct BodySegment {
    steps: Vec<SegmentStep>,
    /// Per-lane energy (pJ) of each micro-op kind the steps issue, by
    /// [`MicroOpKind::index`].
    coeff: [f64; MicroOpKind::ALL.len()],
    lanes: usize,
    regs: usize,
    /// No compute step's ops write the mask plane.
    batch: bool,
    /// `batch`, plus every post-write bookkeeping step is a no-op for these
    /// ops (`lanes % 64 == 0`, no word-serial ops), so fault-free replay
    /// may use the bookkeeping-free word loop (`compiled::run_ops_fast`).
    fast: bool,
}

impl BodySegment {
    /// The decoded steps, in program order.
    pub fn steps(&self) -> &[SegmentStep] {
        &self.steps
    }

    /// True when no step except `SETMASK`/`UNMASK` writes the mask plane.
    /// Every VRF's lane mask — and with it every step's enabled count — is
    /// then invariant across a run of steps between mask writes, so the
    /// run can be accounted step by step and executed as one
    /// [`Self::run_steps`] pass per VRF.
    pub fn batch(&self) -> bool {
        self.batch
    }

    /// True when [`Self::batch`] holds and the bookkeeping-free fast word
    /// loop is sound for these ops (no padding bits, no word-serial ops).
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Executes a contiguous range of steps over one VRF in a single pass
    /// — byte-identical to executing each step in turn, and keeping the
    /// VRF's storage cache-resident across the steps. `NOP`s are skipped.
    ///
    /// On the fast loop a VRF whose lane mask is full runs every masked
    /// write unmerged: the range holds no mask write, so the mask stays
    /// full throughout and each merge would be the identity.
    ///
    /// # Panics
    ///
    /// Panics if the range contains a mask-writing step, or the VRF
    /// geometry differs from the segment's.
    pub fn run_steps(&self, range: Range<usize>, vrf: &mut BitPlaneVrf) {
        assert_eq!(
            (self.lanes, self.regs),
            (vrf.lanes(), vrf.regs()),
            "body segment targets a different VRF geometry"
        );
        let fast = self.fast && vrf.fault_model().is_none() && vrf.mask_enabled();
        let full = vrf.mask_lanes() == vrf.lanes();
        for step in &self.steps[range] {
            match step {
                SegmentStep::Compute { compiled, .. } if fast => {
                    compiled::run_ops_fast(vrf, compiled.ops(), full)
                }
                SegmentStep::Compute { compiled, .. } => compiled::run_ops(vrf, compiled.ops()),
                SegmentStep::GetMask { rd } => vrf.copy_mask_to(rd.0 as u8),
                SegmentStep::Nop => {}
                SegmentStep::SetMask { .. } | SegmentStep::Unmask => {
                    panic!("run_steps spans a mask write")
                }
            }
        }
    }

    /// Energy (pJ) of one step across `enabled` active lanes: the
    /// precomputed total when every lane is enabled, otherwise the per-op
    /// coefficient sum in original op order — the same f64 additions, in
    /// the same order, as [`DatapathModel::recipe_energy_pj`], so the
    /// result is bit-identical. Zero for non-compute steps.
    pub fn step_energy_pj(&self, step: &SegmentStep, enabled: usize) -> f64 {
        let SegmentStep::Compute { recipe, energy_full_pj, .. } = step else {
            return 0.0;
        };
        if enabled == self.lanes {
            return *energy_full_pj;
        }
        let lanes = enabled as f64;
        let mut pj = 0.0;
        for op in recipe.ops() {
            pj += self.coeff[op.kind().index()] * lanes;
        }
        pj
    }
}

/// Length of the longest prefix of `body` made of instructions a segment
/// can hold: compute instructions, `GETMASK`, `SETMASK`, `UNMASK` and
/// `NOP`. Control transfers, `COMPUTE_DONE` and anything that does not
/// belong in a body end it.
pub fn segment_len(body: &[Instruction]) -> usize {
    body.iter()
        .take_while(|instr| {
            is_compute(instr)
                || matches!(
                    instr,
                    Instruction::GetMask { .. }
                        | Instruction::SetMask { .. }
                        | Instruction::Unmask
                        | Instruction::Nop
                )
        })
        .count()
}

/// True for the instructions that lower to a recipe.
fn is_compute(instr: &Instruction) -> bool {
    matches!(
        instr,
        Instruction::Binary { .. }
            | Instruction::Unary { .. }
            | Instruction::Compare { .. }
            | Instruction::Fuzzy { .. }
            | Instruction::Cas { .. }
            | Instruction::Init { .. }
    )
}

/// Decodes the longest fusable prefix of `body` into a [`BodySegment`],
/// resolving each compute instruction to its `(recipe, compiled)` pair
/// via `synth` (the simulator passes its recipe pool here, so a segment
/// shares exactly the already-compiled templates per-instruction
/// execution would run — including deliberately corrupted preloads —
/// without re-synthesizing, re-compiling or copying anything).
///
/// Fusion stops before the first instruction outside [`segment_len`]'s
/// set, the first compute instruction `synth` has no recipe for, and the
/// first `GETMASK` naming a register the geometry lacks; the simulator
/// executes that instruction per-instruction, where it reports its error.
/// The result may therefore have fewer steps than `body`, or none.
pub fn fuse_segment_with(
    datapath: &DatapathModel,
    body: &[Instruction],
    mut synth: impl FnMut(&DatapathModel, &Instruction) -> Option<(Arc<Recipe>, Arc<CompiledRecipe>)>,
) -> BodySegment {
    let g = datapath.geometry();
    let (lanes, regs) = (g.lanes_per_vrf, g.regs_per_vrf);
    let mut steps = Vec::with_capacity(body.len());
    let mut coeff = [0.0; MicroOpKind::ALL.len()];
    // Word offset of the mask plane (mirrors `BitPlaneVrf`'s layout): ops
    // that write it would make the enabled-lane counts vary within a run
    // of steps, so they forfeit batching.
    let words = lanes.div_ceil(64) as u32;
    let mask_base = (regs as u32 * DATA_BITS + SCRATCH_PLANES as u32 + 1) * words;
    let mut writes_mask = false;
    // Word-serial ops transpose whole lane values through the VRF and
    // consult the mask plane dynamically; they are correct on the general
    // word-loop core but excluded from the bookkeeping-free fast loop.
    let mut has_word = false;
    for instr in &body[..segment_len(body)] {
        match instr {
            _ if is_compute(instr) => {
                let Some((recipe, compiled)) = synth(datapath, instr) else { break };
                let serial = datapath.recipe_cycles(&recipe);
                let warm = if datapath.bit_pipelined() {
                    datapath.recipe_stage_cycles(&recipe)
                } else {
                    serial
                };
                for &op in compiled.ops() {
                    writes_mask |= op_writes(op, mask_base);
                    has_word |= matches!(op, CompiledOp::Word { .. });
                }
                let mut energy_full_pj = 0.0;
                for op in recipe.ops() {
                    // `uop_energy_pj(kind, 1)` is the per-lane coefficient
                    // exactly (×1.0 is exact in IEEE 754), so the runtime
                    // `coeff × lanes` product is bit-identical to the cost
                    // model's.
                    let c = datapath.uop_energy_pj(op.kind(), 1);
                    coeff[op.kind().index()] = c;
                    energy_full_pj += c * lanes as f64;
                }
                steps.push(SegmentStep::Compute {
                    instr: *instr,
                    recipe: Arc::clone(&recipe),
                    compiled,
                    serial,
                    warm,
                    uops: recipe.len() as u32,
                    saved: recipe.saved_uops(),
                    energy_full_pj,
                });
            }
            Instruction::GetMask { rd } if (rd.0 as usize) < regs => {
                steps.push(SegmentStep::GetMask { rd: *rd })
            }
            Instruction::SetMask { rs } => steps.push(SegmentStep::SetMask { rs: *rs }),
            Instruction::Unmask => steps.push(SegmentStep::Unmask),
            Instruction::Nop => steps.push(SegmentStep::Nop),
            // A GETMASK naming a register the geometry lacks.
            _ => break,
        }
    }
    let batch = !writes_mask;
    let fast = batch && lanes % 64 == 0 && !has_word;
    BodySegment { steps, coeff, lanes, regs, batch, fast }
}

/// True if `op` writes the plane at word offset `base`.
fn op_writes(op: CompiledOp, base: u32) -> bool {
    match op {
        CompiledOp::Op2 { out, .. }
        | CompiledOp::Maj { out, .. }
        | CompiledOp::Copy { out, .. }
        | CompiledOp::Fill { out, .. } => out == base,
        CompiledOp::FullAdd { carry, sum, latch, .. } => {
            carry == base || sum == base || latch == base
        }
        CompiledOp::Lut { out, .. } => out == base,
        // Word ops write register (and condition) planes only, never the
        // mask plane.
        CompiledOp::Word { .. } => false,
    }
}

/// [`fuse_segment_with`] synthesizing and compiling recipes directly
/// from `datapath` (no shared pool).
pub fn fuse_segment(datapath: &DatapathModel, body: &[Instruction]) -> BodySegment {
    let g = datapath.geometry();
    fuse_segment_with(datapath, body, |dp, instr| {
        let recipe = Arc::new(dp.recipe(instr)?);
        let compiled = Arc::new(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
        Some((recipe, compiled))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatapathKind, Plane};
    use mpu_isa::{BinaryOp, CompareOp, UnaryOp, COND_REG};

    fn add(rd: u16) -> Instruction {
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(rd) }
    }

    fn body() -> Vec<Instruction> {
        vec![
            add(2),
            Instruction::Compare { op: CompareOp::Lt, rs: RegId(2), rt: RegId(1) },
            Instruction::GetMask { rd: RegId(5) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Unary { op: UnaryOp::Inv, rs: RegId(0), rd: RegId(3) },
            Instruction::GetMask { rd: RegId(6) },
            Instruction::Nop,
            Instruction::Unmask,
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(3), rt: RegId(1), rd: RegId(4) },
        ]
    }

    #[test]
    fn fused_steps_match_interpreted_recipes() {
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let g = dp.geometry();
            let seg = fuse_segment(&dp, &body());
            assert_eq!(seg.steps().len(), body().len());

            let mut a = BitPlaneVrf::new(g.lanes_per_vrf, g.regs_per_vrf);
            let xs: Vec<u64> = (0..g.lanes_per_vrf as u64).map(|i| i * 3 + 1).collect();
            let ys: Vec<u64> = (0..g.lanes_per_vrf as u64).map(|i| i * 7 + 2).collect();
            a.write_lane_values(0, &xs);
            a.write_lane_values(1, &ys);
            a.write_lane_values(5, &ys);
            let mut b = a.clone();

            // a: interpret every recipe; b: replay the fused segment. The
            // mask writes apply the same plane effects on both.
            for (i, instr) in body().into_iter().enumerate() {
                match instr {
                    Instruction::SetMask { .. } => {
                        for v in [&mut a, &mut b] {
                            v.copy_plane(Plane::Cond, Plane::Mask);
                        }
                    }
                    Instruction::Unmask => {
                        for v in [&mut a, &mut b] {
                            v.fill_plane(Plane::Mask, true);
                        }
                    }
                    Instruction::GetMask { rd } => {
                        a.set_mask_enabled(false);
                        a.copy_plane(Plane::Mask, Plane::Reg { reg: rd.0 as u8, bit: 0 });
                        for bit in 1..64 {
                            a.fill_plane(Plane::Reg { reg: rd.0 as u8, bit }, false);
                        }
                        a.set_mask_enabled(true);
                        seg.run_steps(i..i + 1, &mut b);
                    }
                    Instruction::Nop => seg.run_steps(i..i + 1, &mut b),
                    ref compute => {
                        let recipe = dp.recipe(compute).expect("compute instruction");
                        for op in recipe.ops() {
                            op.apply(&mut a);
                        }
                        seg.run_steps(i..i + 1, &mut b);
                    }
                }
            }
            assert_eq!(a, b, "{kind:?}: fused segment diverged from interpreter");
        }
    }

    #[test]
    fn step_costs_match_the_cost_model() {
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let lanes = dp.geometry().lanes_per_vrf;
            let seg = fuse_segment(&dp, &body());
            for (step, instr) in seg.steps().iter().zip(body()) {
                let SegmentStep::Compute { serial, warm, .. } = *step else { continue };
                let recipe = dp.recipe(&instr).unwrap();
                let stage =
                    if dp.bit_pipelined() { dp.recipe_stage_cycles(&recipe) } else { serial };
                assert_eq!((serial, warm), (dp.recipe_cycles(&recipe), stage), "{kind:?}");
                for enabled in [lanes, lanes - 1, 17, 0] {
                    assert_eq!(
                        seg.step_energy_pj(step, enabled).to_bits(),
                        dp.recipe_energy_pj(&recipe, enabled).to_bits(),
                        "{kind:?} {instr:?}: energy at {enabled} lanes must match the cost model"
                    );
                }
            }
        }
        let dp = DatapathModel::racer();
        let SegmentStep::Compute { serial, warm, .. } = fuse_segment(&dp, &[add(2)]).steps()[0]
        else {
            unreachable!()
        };
        assert!(warm < serial, "RACER is bit-pipelined");
    }

    #[test]
    fn word_segments_forfeit_the_fast_loop() {
        let seg = fuse_segment(&DatapathModel::dpu(), &[add(2)]);
        assert!(!seg.fast() && seg.batch(), "word-serial ops batch on the general word loop");
        let seg = fuse_segment(&DatapathModel::pluto(), &[add(2)]);
        assert!(seg.fast(), "pLUTo bit-plane segments keep the fast loop");
    }

    #[test]
    fn segments_end_at_control_flow_and_unfusable_instructions() {
        let dp = DatapathModel::racer();
        let jump_cond = Instruction::JumpCond { target: mpu_isa::LineNum(0) };
        for stop in [jump_cond, Instruction::Return, Instruction::ComputeDone] {
            let b = [add(2), Instruction::GetMask { rd: RegId(3) }, stop, add(4)];
            assert_eq!(segment_len(&b), 2, "{stop:?} ends a segment");
            assert_eq!(fuse_segment(&dp, &b).steps().len(), 2);
        }
        // A register the geometry lacks stops fusion before the GETMASK.
        let b = [add(2), Instruction::GetMask { rd: RegId(40) }, add(4)];
        assert_eq!(segment_len(&b), 3);
        assert_eq!(fuse_segment(&dp, &b).steps().len(), 1);
    }
}
