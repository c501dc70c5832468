//! Conformance of the body executor's two modes — every decoded step on
//! its own ("stepped") and straight-line segments fused between control
//! instructions ("fused"):
//!
//! * a dedicated differential sweep over a disjoint seed range, proving
//!   both modes byte-identical to each other and to the word-level
//!   reference model on every backend (`JIT_CONFORMANCE_CASES` overrides
//!   the case count);
//! * a proptest over generated programs — EFI loops, `GETMASK`, nested
//!   predication, and every ensemble body also moved into a `JUMP`/`RETURN`
//!   subroutine — checking identical lanes, `Stats`, recipe-cache
//!   hit/miss/LRU state and watchdog trips on all five substrates;
//! * fusion canaries: loops, mask readouts and subroutine calls run fused,
//!   and still produce the same results;
//! * the playback-refill accounting: a body of `n` fetches charges exactly
//!   `ceil(n / entries) - 1` refills, straight-line or over many EFI
//!   iterations, and fused segments settle the same charges.

use conformance::{check_case, generate, reproducer_text, shrink, Tier, BACKENDS, TIERS};
use mastodon::{run_single, EventLog, Mpu, SimConfig, Stats, System, TraceKind};
use mpu_isa::{Instruction, LineNum, Program, RegId, VrfId};
use pum_backend::DatapathKind;

#[test]
fn two_mode_differential_suite() {
    let cases: u64 =
        std::env::var("JIT_CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40);
    // A seed range disjoint from tests/conformance.rs so the two sweeps
    // compound rather than repeat (check_case covers both execution modes
    // on every shipped backend).
    for seed in 50_000..50_000 + cases {
        let case = generate(seed);
        if let Some(mismatch) = check_case(&case) {
            let (small, m) = shrink(&case, check_case);
            panic!("seed {seed}: {mismatch}\n{}", reproducer_text(&small, &m));
        }
    }
}

fn racer() -> SimConfig {
    SimConfig::mpu(DatapathKind::Racer)
}

fn asm(text: &str) -> Program {
    Program::parse_asm(text).expect("valid asm")
}

/// Runs `p` in both modes on RACER, asserts identical Stats and lanes in
/// `r0..regs`, and returns the fused machine.
fn fused_matches_stepped(p: &Program, inputs: &[mastodon::RegisterInit], regs: u8) -> Mpu {
    let (want, mut stepped) = run_single(Tier::Stepped.config(racer()), p, inputs).unwrap();
    let (got, mut fused) = run_single(racer(), p, inputs).unwrap();
    assert_eq!(want, got, "statistics must be bit-identical across modes");
    for reg in 0..regs {
        assert_eq!(stepped.read_register(0, 0, reg), fused.read_register(0, 0, reg), "r{reg}");
    }
    let (_, runs) = stepped.tier_counts();
    assert!(runs > 0);
    assert_eq!(fused.tier_counts(), (runs, 0), "every segment run must fuse");
    fused
}

#[test]
fn straight_line_bodies_run_fused() {
    let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nSETMASK r63\nINC r2 r3\nUNMASK\nCOMPUTE_DONE");
    fused_matches_stepped(&p, &[((0, 0, 0), vec![5; 64])], 4);
}

#[test]
fn efi_loops_run_fused() {
    // while (r0 > r1): r0 -= r2 — data-dependent trip count.
    let p = asm("COMPUTE h0 v0\n\
         CMPGT r0 r1\n\
         SETMASK r63\n\
         SUB r0 r2 r0\n\
         JUMP_COND 1\n\
         UNMASK\n\
         COMPUTE_DONE");
    let inputs = [((0, 0, 0), vec![3; 64]), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])];
    let mut mpu = fused_matches_stepped(&p, &inputs, 3);
    assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![0; 64]);
}

#[test]
fn mid_body_getmask_runs_fused() {
    let p = asm("COMPUTE h0 v0\nCMPGT r0 r1\nSETMASK r63\nADD r0 r1 r2\nGETMASK r3\nCOMPUTE_DONE");
    let inputs = [((0, 0, 0), (0..64).collect()), ((0, 0, 1), vec![9; 64])];
    let mut mpu = fused_matches_stepped(&p, &inputs, 4);
    let want: Vec<u64> = (0..64).map(|i| u64::from(i > 9)).collect();
    assert_eq!(mpu.read_register(0, 0, 3).unwrap(), want);
}

#[test]
fn subroutine_calls_run_fused() {
    let p = Program::from_instructions(vec![
        Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
        Instruction::Jump { target: LineNum(4) },
        Instruction::ComputeDone,
        Instruction::Return,
        Instruction::Unary { op: mpu_isa::UnaryOp::Inc, rs: RegId(0), rd: RegId(1) },
        Instruction::Return,
    ]);
    let mut mpu = fused_matches_stepped(&p, &[((0, 0, 0), vec![41; 64])], 2);
    assert_eq!(mpu.read_register(0, 0, 1).unwrap(), vec![42; 64]);
}

#[test]
fn every_backend_agrees_across_modes_on_a_predicated_body() {
    let p = asm("COMPUTE h0 v0\n\
         ADD r0 r1 r2\n\
         CMPGT r2 r0\n\
         SETMASK r63\n\
         SUB r2 r1 r3\n\
         UNMASK\n\
         INC r3 r4\n\
         COMPUTE_DONE");
    for kind in DatapathKind::ALL {
        let lanes = SimConfig::mpu(kind).datapath.geometry().lanes_per_vrf;
        let inputs: [((u16, u16, u8), Vec<u64>); 2] =
            [((0, 0, 0), (0..lanes as u64).collect()), ((0, 0, 1), vec![7; lanes])];
        let (want, mut m1) =
            run_single(Tier::Stepped.config(SimConfig::mpu(kind)), &p, &inputs).unwrap();
        let (got, mut m2) = run_single(SimConfig::mpu(kind), &p, &inputs).unwrap();
        assert_eq!(m2.tier_counts(), (1, 0), "{kind:?}: the body is one segment and must fuse");
        assert_eq!(want, got, "{kind:?}: statistics must be bit-identical");
        for reg in 0..5 {
            assert_eq!(
                m1.read_register(0, 0, reg).unwrap(),
                m2.read_register(0, 0, reg).unwrap(),
                "{kind:?} r{reg}"
            );
        }
    }
}

/// `p` with every compute-ensemble body moved into a subroutine: the
/// ensemble becomes `COMPUTE…; JUMP sub; COMPUTE_DONE`, and after a halting
/// top-level `RETURN` each subroutine holds its body (loop targets
/// relocated) followed by `RETURN`. Lane results are unchanged.
fn with_calls(p: &Program) -> Program {
    let code = p.instructions();
    let mut main = Vec::new();
    let mut bodies = Vec::new(); // (jump index in main, body start, body end)
    let mut i = 0;
    while i < code.len() {
        if !matches!(code[i], Instruction::Compute { .. }) {
            main.push(code[i]);
            i += 1;
            continue;
        }
        while let Instruction::Compute { .. } = code[i] {
            main.push(code[i]);
            i += 1;
        }
        let end = i + code[i..].iter().position(|c| *c == Instruction::ComputeDone).unwrap();
        bodies.push((main.len(), i, end));
        main.extend([Instruction::Nop, Instruction::ComputeDone]);
        i = end + 1;
    }
    main.push(Instruction::Return);
    for (jump, start, end) in bodies {
        let sub = main.len();
        main[jump] = Instruction::Jump { target: LineNum(sub as u32) };
        main.extend(code[start..end].iter().map(|instr| match *instr {
            Instruction::JumpCond { target } => {
                Instruction::JumpCond { target: LineNum((target.index() - start + sub) as u32) }
            }
            other => other,
        }));
        main.push(Instruction::Return);
    }
    Program::from_instructions(main)
}

/// What one mode's run of a multi-MPU case leaves behind, per MPU.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The run's error, rendered (`None` on success).
    error: Option<String>,
    stats: Vec<Stats>,
    lanes: Vec<Vec<Vec<u64>>>,
    /// Template-table hits, misses, LRU clock and LRU order.
    caches: Vec<(u64, u64, u64, Vec<u32>)>,
}

fn run_mode(config: SimConfig, programs: &[Program], case: &conformance::Case) -> Outcome {
    let mut sys = System::new(config, programs.len());
    for (id, (mpu, program)) in case.mpus.iter().zip(programs).enumerate() {
        sys.set_program(id, program.clone());
        for input in &mpu.inputs {
            sys.mpu_mut(id).write_register(input.rfh, input.vrf, input.reg, &input.values).unwrap();
        }
    }
    let error = sys.run().err().map(|e| e.to_string());
    let mut out = Outcome { error, stats: vec![], lanes: vec![], caches: vec![] };
    for id in 0..programs.len() {
        let mpu = sys.mpu_mut(id);
        out.stats.push(*mpu.stats());
        let cache = mpu.recipe_cache();
        out.caches.push((cache.hits(), cache.misses(), cache.tick(), cache.lru_order()));
        let regs = (0..conformance::BOX_RFHS)
            .flat_map(|rfh| (0..conformance::BOX_VRFS).map(move |vrf| (rfh, vrf)))
            .flat_map(|(rfh, vrf)| (0..14).map(move |reg| (rfh, vrf, reg)));
        out.lanes.push(regs.map(|(h, v, r)| mpu.read_register(h, v, r).unwrap()).collect());
    }
    out
}

mod executor_modes {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Generated programs (loops, GETMASK, nested predication), as
        /// generated and with every body called as a subroutine: fused
        /// segments and per-instruction stepping leave identical lanes,
        /// Stats (playback refills included) and recipe-cache state on
        /// every substrate, and a watchdog trips on the same line with
        /// the same counters.
        #[test]
        fn fused_and_stepped_runs_agree(seed in 0u64..1 << 20, limit in 1u64..200) {
            let case = generate(seed);
            let Ok(programs) = case.programs() else { return Ok(()) };
            let called: Vec<Program> = programs.iter().map(with_calls).collect();
            for kind in BACKENDS {
                let mut outcomes = Vec::new();
                for program_set in [&programs, &called] {
                    for watchdog in [None, Some(limit)] {
                        let mut config = SimConfig::mpu(kind);
                        config.recovery.watchdog_instructions = watchdog;
                        // A short playback buffer so bodies refill.
                        config.playback_entries = 7;
                        let [stepped, fused] =
                            TIERS.map(|tier| run_mode(tier.config(config.clone()), program_set, &case));
                        prop_assert_eq!(&stepped, &fused, "{:?} seed {} watchdog {:?}", kind, seed, watchdog);
                        outcomes.push(fused);
                    }
                }
                // Calling each body as a subroutine changes no lane result.
                prop_assert_eq!(&outcomes[0].lanes, &outcomes[2].lanes, "{:?} seed {}", kind, seed);
            }
        }
    }

    // The refill checks are cheap: they get more cases than the
    // cross-mode check above.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stepped mode charges exactly `ceil(fetches / entries) - 1`
        /// playback refills for a straight-line body (`fetches` counts the
        /// `COMPUTE_DONE`), and fused segments settle identical charges.
        #[test]
        fn refill_count_matches_the_closed_form(n in 1usize..200, entries in 1usize..=64) {
            let mut instrs = vec![Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) }];
            instrs.extend(std::iter::repeat_n(Instruction::Nop, n));
            instrs.push(Instruction::ComputeDone);
            check_refills(&Program::from_instructions(instrs), &[], n + 1, entries)?;
        }

        /// The same hand count over many EFI iterations: a countdown loop
        /// of `trips` taken back edges fetches its 4-instruction body
        /// `trips + 1` times plus `UNMASK` and `COMPUTE_DONE`.
        #[test]
        fn refill_count_over_efi_iterations(trips in 0u64..300, entries in 1usize..=64) {
            let p = asm("COMPUTE h0 v0\n\
                 CMPGT r0 r1\n\
                 SETMASK r63\n\
                 SUB r0 r2 r0\n\
                 JUMP_COND 1\n\
                 UNMASK\n\
                 COMPUTE_DONE");
            let inputs =
                [((0, 0, 0), vec![trips; 64]), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])];
            check_refills(&p, &inputs, 4 * (trips as usize + 1) + 2, entries)?;
        }
    }

    fn check_refills(
        p: &Program,
        inputs: &[mastodon::RegisterInit],
        fetches: usize,
        entries: usize,
    ) -> Result<(), TestCaseError> {
        let mut cfg = racer();
        cfg.playback_entries = entries;
        // Count actual refill events (an armed tracer steps every
        // instruction).
        let log = EventLog::new();
        let (traced, _) =
            mastodon::run_single_traced(cfg.clone(), p, inputs, None, Some(Box::new(log.clone())))
                .unwrap();
        let refills =
            log.take().iter().filter(|ev| matches!(ev.kind, TraceKind::PlaybackRefill)).count();
        prop_assert_eq!(refills, fetches.div_ceil(entries) - 1);
        let refill = cfg.control.playback_refill;
        for tier in TIERS {
            let (stats, mpu) = run_single(tier.config(cfg.clone()), p, inputs).unwrap();
            let (fused, stepped) = mpu.tier_counts();
            prop_assert_eq!(if tier == Tier::Fused { stepped } else { fused }, 0);
            prop_assert_eq!(stats, traced);
            prop_assert!(stats.control_cycles >= refills as u64 * refill);
        }
        Ok(())
    }
}
