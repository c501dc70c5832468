//! Bit-plane vector register file storage.
//!
//! Bitwise PUM datapaths store each vector register bit-sliced: bit *b* of
//! every lane lives in the same physical row/column, and a micro-op (NOR,
//! triple-row-activate majority, bitline AND, ...) applies to **all lanes
//! of one bit-plane at once**. [`BitPlaneVrf`] reproduces that layout
//! exactly: a plane is a packed bitvector over lanes, and micro-ops are
//! whole-plane boolean operations — the column-parallel physics of PUM.
//!
//! # In-place execution
//!
//! Micro-ops are the simulator's innermost loop (a 32-bit MUL replays
//! thousands per VRF per wave), so every plane operation here runs
//! **allocation-free and in place**: plane addresses resolve to offsets
//! into one flat `storage` buffer, and the output words are computed
//! directly over that buffer with the lane mask fused into the same loop.
//! Word-wise plane operations are pointwise, so an output that aliases an
//! input is safe without staging: each output word is produced from the
//! already-read input words of the same index. Host data loads go through
//! a word-level 64×64 bit-matrix transpose instead of per-bit shifting.

use crate::fault::FaultModel;
use crate::microop::MicroOpKind;
use crate::DATA_BITS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one bit-plane of a VRF, as addressed by micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Plane {
    /// Bit `bit` of architectural vector register `reg`.
    Reg {
        /// Register index within the VRF.
        reg: u8,
        /// Bit position within each 64-bit element.
        bit: u8,
    },
    /// A scratch plane (buffer rows used by recipes for temporaries;
    /// RACER buffers, Ambit designated compute rows, DC sense-amp latches).
    Scratch(u16),
    /// The conditional register: one bit per lane, written by comparison
    /// instructions. Writes are lane-masked.
    Cond,
    /// The mask register: one bit per lane, gating writes to architectural
    /// planes. Writes to this plane are *not* masked (otherwise lanes could
    /// never be re-enabled).
    Mask,
    /// A preset constant row (read-only), as used by e.g. Ambit to turn a
    /// majority vote into AND (`Const(false)`) or OR (`Const(true)`).
    Const(bool),
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plane::Reg { reg, bit } => write!(f, "r{reg}.{bit}"),
            Plane::Scratch(i) => write!(f, "s{i}"),
            Plane::Cond => f.write_str("cond"),
            Plane::Mask => f.write_str("mask"),
            Plane::Const(b) => write!(f, "const{}", u8::from(*b)),
        }
    }
}

/// Number of scratch planes available to recipes.
pub const SCRATCH_PLANES: usize = 24;

/// Transposes a 64×64 bit matrix in place (`a[r]` bit `c` ↔ `a[c]` bit
/// `r`), using the classic recursive block-swap (Hacker's Delight §7-3):
/// six passes of word-level shifts and XOR swaps instead of 4096 per-bit
/// probes. This is the packing kernel behind the host data-load path.
fn transpose_64x64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the off-diagonal j×j blocks of rows [k, k|j).
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k | j] ^= t;
            a[k] ^= t << j;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// A bit-plane vector register file: `regs × 64` architectural planes plus
/// scratch, conditional, mask and constant planes, each a packed bitvector
/// over `lanes`.
///
/// # Example
///
/// ```
/// use pum_backend::BitPlaneVrf;
///
/// let mut vrf = BitPlaneVrf::new(64, 8);
/// vrf.write_lane_values(0, &[7; 64]);
/// assert_eq!(vrf.read_lane_values(0)[5], 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitPlaneVrf {
    lanes: usize,
    regs: usize,
    words: usize,
    /// Flat plane storage: `(regs*64 + SCRATCH + cond + mask + const0/1)`
    /// planes of `words` u64 words each.
    storage: Vec<u64>,
    /// When `false`, writes to architectural planes ignore the mask
    /// register (used while servicing `GETMASK`, which must copy all bits).
    mask_enabled: bool,
    /// Cached popcount of the mask plane, refreshed whenever the mask
    /// plane is written (it is a pure function of `storage`, so derived
    /// equality and serialization stay consistent).
    mask_lanes: usize,
    /// Optional seeded hardware fault model (see [`crate::fault`]). `None`
    /// (the default) keeps every hot-path hook down to one branch, so a
    /// fault-free VRF behaves byte-identically to one built without the
    /// fault layer.
    #[serde(default)]
    faults: Option<Box<FaultModel>>,
}

impl BitPlaneVrf {
    /// Creates a VRF with `lanes` lanes and `regs` architectural vector
    /// registers, all zeroed, mask fully enabled (all lanes on).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, `regs == 0`, or `regs > 64`.
    pub fn new(lanes: usize, regs: usize) -> Self {
        assert!(lanes > 0, "a VRF needs at least one lane");
        assert!(regs > 0 && regs <= 64, "register count must be in 1..=64");
        let words = lanes.div_ceil(64);
        let n_planes = regs * DATA_BITS as usize + SCRATCH_PLANES + 4;
        let mut vrf = Self {
            lanes,
            regs,
            words,
            storage: vec![0u64; n_planes * words],
            mask_enabled: true,
            mask_lanes: 0,
            faults: None,
        };
        // Mask starts all-enabled; const1 plane all ones.
        vrf.fill_plane(Plane::Mask, true);
        let c1 = vrf.plane_index(Plane::Const(true)) * words;
        vrf.fill_op(c1, false, true);
        vrf
    }

    /// Number of lanes (vector elements) in this VRF.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of architectural vector registers.
    pub fn regs(&self) -> usize {
        self.regs
    }

    fn plane_index(&self, plane: Plane) -> usize {
        let arch = self.regs * DATA_BITS as usize;
        match plane {
            Plane::Reg { reg, bit } => {
                let (reg, bit) = (reg as usize, bit as usize);
                assert!(reg < self.regs, "register {reg} out of range (VRF has {})", self.regs);
                assert!(bit < DATA_BITS as usize, "bit {bit} out of range");
                reg * DATA_BITS as usize + bit
            }
            Plane::Scratch(i) => {
                assert!((i as usize) < SCRATCH_PLANES, "scratch plane {i} out of range");
                arch + i as usize
            }
            Plane::Cond => arch + SCRATCH_PLANES,
            Plane::Mask => arch + SCRATCH_PLANES + 1,
            Plane::Const(false) => arch + SCRATCH_PLANES + 2,
            Plane::Const(true) => arch + SCRATCH_PLANES + 3,
        }
    }

    fn plane(&self, plane: Plane) -> &[u64] {
        let i = self.plane_index(plane);
        &self.storage[i * self.words..(i + 1) * self.words]
    }

    /// Word offset of the mask plane in `storage`.
    #[inline]
    pub(crate) fn mask_base(&self) -> usize {
        (self.regs * DATA_BITS as usize + SCRATCH_PLANES + 1) * self.words
    }

    /// Words per plane (`lanes.div_ceil(64)`).
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Direct access to the flat plane storage, for the fused
    /// fused-segment executor (`compiled::run_ops_fast`), which has
    /// statically discharged all [`Self::finish_write`] bookkeeping.
    #[inline]
    pub(crate) fn storage_mut(&mut self) -> &mut [u64] {
        &mut self.storage
    }

    /// Range of words in a [`Self::snapshot`] image occupied by the
    /// scratch planes. Redundant-execution comparison and voting exclude
    /// this range: scratch contents are not architectural — recipes are
    /// free to leave different residue there (the recipe optimizer elides
    /// dead scratch stores), and a scratch fault that matters has
    /// propagated into an architectural plane by the time a recipe ends.
    pub fn scratch_word_range(&self) -> std::ops::Range<usize> {
        let arch = self.regs * DATA_BITS as usize;
        arch * self.words..(arch + SCRATCH_PLANES) * self.words
    }

    /// True if writes to `plane` must be gated by the mask register.
    pub(crate) fn is_masked_target(plane: Plane) -> bool {
        matches!(plane, Plane::Reg { .. } | Plane::Cond)
    }

    /// Resolves an output plane to its storage offset and whether the
    /// current write must honour the lane mask.
    ///
    /// # Panics
    ///
    /// Panics if `out` is a constant plane.
    #[inline]
    fn out_base(&self, out: Plane) -> (usize, bool) {
        assert!(!matches!(out, Plane::Const(_)), "constant planes are read-only");
        (self.plane_index(out) * self.words, self.mask_enabled && Self::is_masked_target(out))
    }

    /// Post-write bookkeeping for the plane at word offset `base`: zeroes
    /// bits beyond `lanes` in the last word (whole-plane reductions stay
    /// exact), forces permanently stuck/dead lanes to their stuck values,
    /// and refreshes the cached mask popcount if the mask plane was the
    /// target.
    #[inline]
    fn finish_write(&mut self, base: usize) {
        let extra = self.words * 64 - self.lanes;
        if extra > 0 {
            self.storage[base + self.words - 1] &= !0u64 >> extra;
        }
        if let Some(f) = &self.faults {
            if f.has_forced_lanes() {
                for w in 0..self.words {
                    self.storage[base + w] = f.force_word(w, self.storage[base + w]);
                }
            }
        }
        if base == self.mask_base() {
            self.mask_lanes =
                self.storage[base..base + self.words].iter().map(|w| w.count_ones() as usize).sum();
        }
    }

    /// In-place two-input word loop: `storage[out..] = f(a, b)`, with the
    /// mask merge fused when `masked`. Aliasing between `out` and any
    /// input is safe (the operation is pointwise per word).
    #[inline]
    pub(crate) fn op2(
        &mut self,
        a: usize,
        b: usize,
        out: usize,
        masked: bool,
        f: impl Fn(u64, u64) -> u64,
    ) {
        if masked {
            let mask = self.mask_base();
            for w in 0..self.words {
                let new = f(self.storage[a + w], self.storage[b + w]);
                let m = self.storage[mask + w];
                self.storage[out + w] = (new & m) | (self.storage[out + w] & !m);
            }
        } else {
            for w in 0..self.words {
                self.storage[out + w] = f(self.storage[a + w], self.storage[b + w]);
            }
        }
        self.finish_write(out);
    }

    /// In-place three-input word loop (see [`BitPlaneVrf::op2`]).
    #[inline]
    pub(crate) fn op3(
        &mut self,
        a: usize,
        b: usize,
        c: usize,
        out: usize,
        masked: bool,
        f: impl Fn(u64, u64, u64) -> u64,
    ) {
        if masked {
            let mask = self.mask_base();
            for w in 0..self.words {
                let new = f(self.storage[a + w], self.storage[b + w], self.storage[c + w]);
                let m = self.storage[mask + w];
                self.storage[out + w] = (new & m) | (self.storage[out + w] & !m);
            }
        } else {
            for w in 0..self.words {
                self.storage[out + w] =
                    f(self.storage[a + w], self.storage[b + w], self.storage[c + w]);
            }
        }
        self.finish_write(out);
    }

    /// In-place plane copy (see [`BitPlaneVrf::op2`]).
    #[inline]
    pub(crate) fn copy_op(&mut self, a: usize, out: usize, masked: bool) {
        if masked {
            let mask = self.mask_base();
            for w in 0..self.words {
                let m = self.storage[mask + w];
                self.storage[out + w] = (self.storage[a + w] & m) | (self.storage[out + w] & !m);
            }
        } else if a != out {
            for w in 0..self.words {
                self.storage[out + w] = self.storage[a + w];
            }
        }
        self.finish_write(out);
    }

    /// In-place constant fill (see [`BitPlaneVrf::op2`]).
    #[inline]
    pub(crate) fn fill_op(&mut self, out: usize, masked: bool, value: bool) {
        let word = if value { !0u64 } else { 0u64 };
        if masked {
            let mask = self.mask_base();
            for w in 0..self.words {
                let m = self.storage[mask + w];
                self.storage[out + w] = (word & m) | (self.storage[out + w] & !m);
            }
        } else {
            self.storage[out..out + self.words].fill(word);
        }
        self.finish_write(out);
    }

    /// Applies a two-input boolean plane operation: `out = f(a, b)`.
    pub fn apply2(&mut self, a: Plane, b: Plane, out: Plane, f: impl Fn(u64, u64) -> u64) {
        let a = self.plane_index(a) * self.words;
        let b = self.plane_index(b) * self.words;
        let (out, masked) = self.out_base(out);
        self.op2(a, b, out, masked, f);
    }

    /// Applies a three-input boolean plane operation: `out = f(a, b, c)`.
    pub fn apply3(
        &mut self,
        a: Plane,
        b: Plane,
        c: Plane,
        out: Plane,
        f: impl Fn(u64, u64, u64) -> u64,
    ) {
        let a = self.plane_index(a) * self.words;
        let b = self.plane_index(b) * self.words;
        let c = self.plane_index(c) * self.words;
        let (out, masked) = self.out_base(out);
        self.op3(a, b, c, out, masked, f);
    }

    /// Copies plane `a` into `out` (a row-copy / buffered copy micro-op).
    pub fn copy_plane(&mut self, a: Plane, out: Plane) {
        let a = self.plane_index(a) * self.words;
        let (out, masked) = self.out_base(out);
        self.copy_op(a, out, masked);
    }

    /// Fills `out` with a constant bit (a preset / initialize micro-op).
    pub fn fill_plane(&mut self, out: Plane, value: bool) {
        let (out, masked) = self.out_base(out);
        self.fill_op(out, masked, value);
    }

    /// Reads one lane's bit from a plane.
    pub fn lane_bit(&self, plane: Plane, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (self.plane(plane)[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// True if any lane of `plane` is set (the EFI's "any lane enabled"
    /// reduction used by `JUMP_COND`).
    pub fn any_lane_set(&self, plane: Plane) -> bool {
        self.plane(plane).iter().any(|&w| w != 0)
    }

    /// Number of set lanes in `plane`.
    pub fn count_lanes_set(&self, plane: Plane) -> usize {
        self.plane(plane).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of currently enabled lanes — the cached popcount of the mask
    /// plane, maintained incrementally so per-instruction energy gating
    /// does not rescan the plane.
    pub fn mask_lanes(&self) -> usize {
        self.mask_lanes
    }

    /// Reads the packed bitvector of a plane (words of 64 lanes).
    pub fn plane_words(&self, plane: Plane) -> &[u64] {
        self.plane(plane)
    }

    /// Overwrites a plane with packed lane bits, bypassing the mask (used
    /// by the control path and by DMA-style transfers).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the plane word count.
    pub fn set_plane_words(&mut self, plane: Plane, words: &[u64]) {
        assert_eq!(words.len(), self.words, "plane word count mismatch");
        let base = self.plane_index(plane) * self.words;
        self.storage[base..base + self.words].copy_from_slice(words);
        self.finish_write(base);
    }

    /// `GETMASK`: copies the mask plane into bit 0 of `reg` and clears
    /// bits 1..63, with lane masking suspended so every lane is written.
    pub fn copy_mask_to(&mut self, reg: u8) {
        self.set_mask_enabled(false);
        self.copy_plane(Plane::Mask, Plane::Reg { reg, bit: 0 });
        for bit in 1..DATA_BITS as u8 {
            self.fill_plane(Plane::Reg { reg, bit }, false);
        }
        self.set_mask_enabled(true);
    }

    /// Temporarily disables lane masking (control-path `GETMASK` path).
    pub fn set_mask_enabled(&mut self, enabled: bool) {
        self.mask_enabled = enabled;
    }

    /// Whether lane masking currently applies to architectural writes.
    pub fn mask_enabled(&self) -> bool {
        self.mask_enabled
    }

    /// Executes a pre-compiled recipe (see [`crate::CompiledRecipe`]):
    /// plane addresses and mask-target decisions were resolved at
    /// compile time, so the hot loop is pure word arithmetic over
    /// `storage`.
    ///
    /// # Panics
    ///
    /// Panics if the recipe was compiled for a different VRF geometry.
    pub fn run_compiled(&mut self, recipe: &crate::CompiledRecipe) {
        assert_eq!(
            (recipe.lanes(), recipe.regs()),
            (self.lanes, self.regs),
            "compiled recipe targets a different VRF geometry"
        );
        crate::compiled::run(self, recipe);
    }

    /// Transient-fault hook, called once per executed micro-op by the
    /// interpreted path ([`crate::MicroOp::apply`]) with the op's output
    /// plane. With no fault model attached this is a single branch.
    #[inline]
    pub(crate) fn post_op(&mut self, kind: MicroOpKind, out: Plane) {
        if self.faults.is_some() {
            let base = self.plane_index(out) * self.words;
            self.post_op_at(kind, base);
        }
    }

    /// Transient-fault hook over a pre-resolved output plane offset (the
    /// compiled path's form of [`BitPlaneVrf::post_op`]). Both paths call
    /// it exactly once per micro-op with the same `(kind, plane)`
    /// sequence, so interpreted and compiled execution draw identical
    /// fault sites and stay byte-identical under injection.
    #[inline]
    pub(crate) fn post_op_at(&mut self, kind: MicroOpKind, out_base: usize) {
        let mask_base = self.mask_base();
        let lanes = self.lanes;
        let Some(f) = self.faults.as_deref_mut() else { return };
        if let Some(lane) = f.draw_flip(kind, lanes) {
            let (w, bit) = (lane / 64, 1u64 << (lane % 64));
            // A flip on a permanently forced lane is absorbed by the
            // stuck value and does not count as an injection.
            let flipped = f.force_word(w, self.storage[out_base + w] ^ bit);
            if flipped != self.storage[out_base + w] {
                self.storage[out_base + w] = flipped;
                f.note_injected();
                if out_base == mask_base {
                    self.mask_lanes = self.storage[mask_base..mask_base + self.words]
                        .iter()
                        .map(|w| w.count_ones() as usize)
                        .sum();
                }
            }
        }
    }

    /// RFH write-corruption hook, called by the simulator after a
    /// *runtime* register write lands (message delivery, transfer-block
    /// landing) — never for host data loads, which model an ideal test
    /// interface. On a hit, flips one bit of one lane of `reg`; returns
    /// whether a corruption landed.
    pub fn corrupt_register_write(&mut self, reg: u8) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let base = self.plane_index(Plane::Reg { reg, bit: 0 }) * self.words;
        let lanes = self.lanes;
        let Some(f) = self.faults.as_deref_mut() else { return false };
        let Some((lane, bit)) = f.draw_write_corruption(lanes) else { return false };
        let (w, lane_bit) = (lane / 64, 1u64 << (lane % 64));
        let i = base + bit as usize * self.words + w;
        let flipped = f.force_word(w, self.storage[i] ^ lane_bit);
        if flipped == self.storage[i] {
            return false;
        }
        self.storage[i] = flipped;
        f.note_injected();
        true
    }

    /// Attaches (or detaches, with `None`) a hardware fault model. Any
    /// permanently stuck lanes take effect immediately across all planes —
    /// a stuck bit-line is stuck from power-on, not from its next write.
    pub fn set_fault_model(&mut self, model: Option<FaultModel>) {
        self.faults = model.map(Box::new);
        if let Some(f) = &self.faults {
            if f.has_forced_lanes() {
                let planes = self.storage.len() / self.words;
                for p in 0..planes {
                    for w in 0..self.words {
                        let i = p * self.words + w;
                        self.storage[i] = f.force_word(w, self.storage[i]);
                    }
                }
                let base = self.mask_base();
                self.mask_lanes = self.storage[base..base + self.words]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum();
            }
        }
    }

    /// The attached fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.faults.as_deref()
    }

    /// Mutable access to the attached fault model, if any.
    pub fn fault_model_mut(&mut self) -> Option<&mut FaultModel> {
        self.faults.as_deref_mut()
    }

    /// Drains the fault model's landed-injection counter (0 if no model).
    pub fn take_injected(&mut self) -> u64 {
        self.faults.as_deref_mut().map_or(0, FaultModel::take_injected)
    }

    /// Captures the full plane storage for checkpoint/redundancy replay.
    /// The fault model (and its PRNG site) is deliberately *not* part of
    /// the snapshot: re-running after a restore must draw fresh fault
    /// sites, not replay the same ones.
    pub fn snapshot(&self) -> Vec<u64> {
        self.storage.clone()
    }

    /// Restores plane storage captured by [`BitPlaneVrf::snapshot`] and
    /// refreshes derived state (the cached mask popcount).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different VRF geometry.
    pub fn restore(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), self.storage.len(), "snapshot geometry mismatch");
        self.storage.copy_from_slice(snapshot);
        let base = self.mask_base();
        self.mask_lanes =
            self.storage[base..base + self.words].iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Writes 64-bit element values into register `reg`, one per lane,
    /// starting at lane 0; remaining lanes are zeroed (implicit padding).
    /// Bypasses the mask (this is the host/DMA data-load path).
    ///
    /// Packing goes through a word-level 64×64 bit-matrix transpose: one
    /// lane block (64 lanes × 64 bits) is transposed in six shift/XOR
    /// passes and scattered to the register's bit planes.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > lanes`.
    pub fn write_lane_values(&mut self, reg: u8, values: &[u64]) {
        assert!(values.len() <= self.lanes, "{} values exceed {} lanes", values.len(), self.lanes);
        let base = self.plane_index(Plane::Reg { reg, bit: 0 }) * self.words;
        let mut block = [0u64; 64];
        for w in 0..self.words {
            let src = &values[values.len().min(w * 64)..];
            let n = src.len().min(64);
            block[..n].copy_from_slice(&src[..n]);
            block[n..].fill(0);
            transpose_64x64(&mut block);
            for (bit, &plane_word) in block.iter().enumerate() {
                self.storage[base + bit * self.words + w] = plane_word;
            }
        }
        // This path bypasses `finish_write`, so apply the permanent-lane
        // forcing explicitly: data loaded onto a stuck bit-line reads back
        // at the stuck value.
        if let Some(f) = &self.faults {
            if f.has_forced_lanes() {
                for bit in 0..DATA_BITS as usize {
                    for w in 0..self.words {
                        let i = base + bit * self.words + w;
                        self.storage[i] = f.force_word(w, self.storage[i]);
                    }
                }
            }
        }
    }

    /// Reads register `reg` back as 64-bit element values, one per lane
    /// (the inverse transpose of [`BitPlaneVrf::write_lane_values`]).
    pub fn read_lane_values(&self, reg: u8) -> Vec<u64> {
        let base = self.plane_index(Plane::Reg { reg, bit: 0 }) * self.words;
        let mut values = vec![0u64; self.lanes];
        let mut block = [0u64; 64];
        for w in 0..self.words {
            for (bit, row) in block.iter_mut().enumerate() {
                *row = self.storage[base + bit * self.words + w];
            }
            transpose_64x64(&mut block);
            let lo = w * 64;
            let n = (self.lanes - lo).min(64);
            values[lo..lo + n].copy_from_slice(&block[..n]);
        }
        values
    }

    /// Masked word-level register store: lane `i` of `reg` receives
    /// `values[i]` where the lane mask enables it; disabled lanes keep
    /// their contents. This is the word-serial (DPU) datapath's write-back
    /// path — unlike [`BitPlaneVrf::write_lane_values`] (a host-side data
    /// load that bypasses the mask), registers are architectural targets
    /// here and the merge matches the bit-plane `op2`/`op3` semantics
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != lanes`.
    pub(crate) fn store_lane_values(&mut self, reg: u8, values: &[u64]) {
        assert_eq!(values.len(), self.lanes, "word store must cover every lane");
        let base = self.plane_index(Plane::Reg { reg, bit: 0 }) * self.words;
        let masked = self.mask_enabled;
        let mask_base = self.mask_base();
        let mut block = [0u64; 64];
        for w in 0..self.words {
            let lo = w * 64;
            let n = (self.lanes - lo).min(64);
            block[..n].copy_from_slice(&values[lo..lo + n]);
            block[n..].fill(0);
            transpose_64x64(&mut block);
            // Tail lanes beyond `lanes` stay zero either way: the unmasked
            // plane words carry zeros there, and the mask plane's invariant
            // tail zeros preserve the (zero) old contents when masked.
            let m = if masked { self.storage[mask_base + w] } else { !0u64 };
            for (bit, &plane_word) in block.iter().enumerate() {
                let i = base + bit * self.words + w;
                self.storage[i] = (plane_word & m) | (self.storage[i] & !m);
            }
        }
        if let Some(f) = &self.faults {
            if f.has_forced_lanes() {
                for bit in 0..DATA_BITS as usize {
                    for w in 0..self.words {
                        let i = base + bit * self.words + w;
                        self.storage[i] = f.force_word(w, self.storage[i]);
                    }
                }
            }
        }
    }

    /// Masked conditional-plane store from pre-packed per-lane flag words
    /// (bit `i % 64` of `flags[i / 64]` is lane `i`'s flag). The word-serial
    /// datapath's `Compare`/`Fuzzy` write-back path.
    pub(crate) fn store_cond_words(&mut self, flags: &[u64]) {
        assert_eq!(flags.len(), self.words, "flag words must cover the lane range");
        let (out, masked) = self.out_base(Plane::Cond);
        if masked {
            let mask_base = self.mask_base();
            for (w, &flag_word) in flags.iter().enumerate() {
                let m = self.storage[mask_base + w];
                self.storage[out + w] = (flag_word & m) | (self.storage[out + w] & !m);
            }
        } else {
            self.storage[out..out + self.words].copy_from_slice(flags);
        }
        self.finish_write(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_value_roundtrip() {
        let mut vrf = BitPlaneVrf::new(100, 4);
        let values: Vec<u64> =
            (0..100).map(|i| (i as u64).wrapping_mul(0x1234_5678_9abc_def1)).collect();
        vrf.write_lane_values(2, &values);
        assert_eq!(vrf.read_lane_values(2), values);
    }

    #[test]
    fn transpose_matches_naive_bit_packing() {
        // The word-level transpose must place bit b of lane l exactly where
        // the per-bit packer did: plane (reg, b), word l/64, bit l%64.
        let lanes = 130;
        let mut vrf = BitPlaneVrf::new(lanes, 2);
        let values: Vec<u64> =
            (0..lanes as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 40)).collect();
        vrf.write_lane_values(1, &values);
        for bit in 0..64u8 {
            let plane = vrf.plane_words(Plane::Reg { reg: 1, bit });
            for (lane, &v) in values.iter().enumerate() {
                let expect = (v >> bit) & 1 == 1;
                let got = (plane[lane / 64] >> (lane % 64)) & 1 == 1;
                assert_eq!(got, expect, "bit {bit} lane {lane}");
            }
            // Tail bits beyond `lanes` stay zero.
            let extra = lanes.div_ceil(64) * 64 - lanes;
            assert_eq!(plane[lanes / 64] >> (64 - extra), 0, "tail of bit {bit}");
        }
    }

    #[test]
    fn short_writes_zero_pad_remaining_lanes() {
        let mut vrf = BitPlaneVrf::new(100, 2);
        vrf.write_lane_values(0, &[u64::MAX; 100]);
        vrf.write_lane_values(0, &[7, 7, 7]);
        let got = vrf.read_lane_values(0);
        assert_eq!(&got[..3], &[7, 7, 7]);
        assert!(got[3..].iter().all(|&v| v == 0), "padding lanes must clear");
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_writes_are_rejected() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        vrf.write_lane_values(0, &[0; 65]);
    }

    #[test]
    fn apply2_is_whole_plane_parallel() {
        let mut vrf = BitPlaneVrf::new(130, 2);
        let a: Vec<u64> = (0..130).map(|i| i as u64 & 1).collect();
        let b: Vec<u64> = (0..130).map(|i| (i as u64 >> 1) & 1).collect();
        vrf.write_lane_values(0, &a);
        vrf.write_lane_values(1, &b);
        // NOR of bit 0 planes.
        vrf.apply2(
            Plane::Reg { reg: 0, bit: 0 },
            Plane::Reg { reg: 1, bit: 0 },
            Plane::Scratch(0),
            |x, y| !(x | y),
        );
        for lane in 0..130 {
            let expect = !(a[lane] | b[lane]) & 1 == 1;
            assert_eq!(vrf.lane_bit(Plane::Scratch(0), lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn aliased_outputs_are_pointwise_safe() {
        let mut vrf = BitPlaneVrf::new(128, 2);
        vrf.set_plane_words(Plane::Scratch(0), &[0xdead_beef_0123_4567, 0x3]);
        vrf.set_plane_words(Plane::Scratch(1), &[0xffff_0000_ffff_0000, 0x2]);
        // out == a
        vrf.apply2(Plane::Scratch(0), Plane::Scratch(1), Plane::Scratch(0), |x, y| x ^ y);
        assert_eq!(
            vrf.plane_words(Plane::Scratch(0)),
            &[0xdead_beef_0123_4567u64 ^ 0xffff_0000_ffff_0000, 0x1]
        );
        // out == b
        vrf.apply2(Plane::Scratch(0), Plane::Scratch(1), Plane::Scratch(1), |x, y| x & y);
        assert_eq!(
            vrf.plane_words(Plane::Scratch(1)),
            &[(0xdead_beef_0123_4567u64 ^ 0xffff_0000_ffff_0000) & 0xffff_0000_ffff_0000, 0x0]
        );
    }

    #[test]
    fn masked_writes_preserve_disabled_lanes() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        vrf.write_lane_values(0, &[5u64; 64]);
        // Disable odd lanes.
        let mask: Vec<u64> = (0..64).map(|i| (i % 2 == 0) as u64).collect();
        let mut packed = 0u64;
        for (i, &m) in mask.iter().enumerate() {
            packed |= m << i;
        }
        vrf.set_plane_words(Plane::Mask, &[packed]);
        // Write constant 1 into bit 1 of reg 0 (value +2 where enabled).
        vrf.fill_plane(Plane::Reg { reg: 0, bit: 1 }, true);
        let vals = vrf.read_lane_values(0);
        for (lane, &v) in vals.iter().enumerate() {
            if lane % 2 == 0 {
                assert_eq!(v, 7, "enabled lane {lane}");
            } else {
                assert_eq!(v, 5, "disabled lane {lane}");
            }
        }
    }

    #[test]
    fn mask_plane_writes_are_never_masked() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.fill_plane(Plane::Mask, false); // all lanes off
        vrf.fill_plane(Plane::Mask, true); // must still re-enable
        assert_eq!(vrf.count_lanes_set(Plane::Mask), 64);
    }

    #[test]
    fn mask_popcount_cache_tracks_every_write_path() {
        let mut vrf = BitPlaneVrf::new(100, 2);
        assert_eq!(vrf.mask_lanes(), 100);
        vrf.fill_plane(Plane::Mask, false);
        assert_eq!(vrf.mask_lanes(), 0);
        vrf.set_plane_words(Plane::Mask, &[0xff, 0x1]);
        assert_eq!(vrf.mask_lanes(), 9);
        vrf.copy_plane(Plane::Const(true), Plane::Mask);
        assert_eq!(vrf.mask_lanes(), 100);
        vrf.apply2(Plane::Const(true), Plane::Const(true), Plane::Mask, |x, y| x & !y);
        assert_eq!(vrf.mask_lanes(), 0);
        // Non-mask writes leave the cache untouched but consistent.
        vrf.fill_plane(Plane::Scratch(0), true);
        assert_eq!(vrf.mask_lanes(), vrf.count_lanes_set(Plane::Mask));
    }

    #[test]
    fn const_planes_hold_their_values() {
        let vrf = BitPlaneVrf::new(70, 1);
        assert_eq!(vrf.count_lanes_set(Plane::Const(true)), 70);
        assert_eq!(vrf.count_lanes_set(Plane::Const(false)), 0);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn const_planes_reject_writes() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.fill_plane(Plane::Const(false), true);
    }

    #[test]
    fn any_and_count_reductions_ignore_tail_bits() {
        let mut vrf = BitPlaneVrf::new(65, 1);
        vrf.fill_plane(Plane::Scratch(0), true);
        assert_eq!(vrf.count_lanes_set(Plane::Scratch(0)), 65);
        vrf.fill_plane(Plane::Scratch(0), false);
        assert!(!vrf.any_lane_set(Plane::Scratch(0)));
    }

    #[test]
    fn getmask_path_bypasses_masking() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.set_plane_words(Plane::Mask, &[0x00ff_00ff_00ff_00ffu64]);
        vrf.set_mask_enabled(false);
        // Copy the mask into an architectural plane: all bits must copy.
        vrf.copy_plane(Plane::Mask, Plane::Reg { reg: 0, bit: 0 });
        vrf.set_mask_enabled(true);
        assert_eq!(vrf.plane_words(Plane::Reg { reg: 0, bit: 0 })[0], 0x00ff_00ff_00ff_00ff);
    }

    #[test]
    fn cond_writes_respect_mask() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.fill_plane(Plane::Cond, true);
        vrf.set_plane_words(Plane::Mask, &[0xffff_0000_0000_0000u64]);
        vrf.fill_plane(Plane::Cond, false);
        // Only the 16 enabled lanes were cleared.
        assert_eq!(vrf.count_lanes_set(Plane::Cond), 48);
    }

    #[test]
    fn stuck_lanes_force_every_write_path() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        let mut fm = FaultModel::new(1, 64);
        fm.add_stuck_lane(5, true);
        fm.add_stuck_lane(9, false);
        vrf.set_fault_model(Some(fm));
        // Host data load: every bit of lane 5 forced to 1, lane 9 to 0.
        vrf.write_lane_values(0, &[0u64; 64]);
        assert_eq!(vrf.read_lane_values(0)[5], u64::MAX);
        vrf.write_lane_values(1, &[u64::MAX; 64]);
        assert_eq!(vrf.read_lane_values(1)[9], 0);
        // Plane ops go through finish_write forcing.
        vrf.fill_plane(Plane::Scratch(0), false);
        assert!(vrf.lane_bit(Plane::Scratch(0), 5));
        vrf.fill_plane(Plane::Scratch(0), true);
        assert!(!vrf.lane_bit(Plane::Scratch(0), 9));
        // Attach-time forcing already propagated to the mask plane.
        assert!(!vrf.lane_bit(Plane::Mask, 9));
        assert_eq!(vrf.mask_lanes(), vrf.count_lanes_set(Plane::Mask));
    }

    #[test]
    fn transient_flips_land_and_are_counted() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        let mut fm = FaultModel::new(3, 64);
        fm.set_transient_rate(MicroOpKind::Set, 1.0);
        vrf.set_fault_model(Some(fm));
        vrf.fill_plane(Plane::Scratch(0), false);
        vrf.post_op(MicroOpKind::Set, Plane::Scratch(0));
        assert_eq!(vrf.count_lanes_set(Plane::Scratch(0)), 1, "exactly one lane flipped");
        assert_eq!(vrf.take_injected(), 1);
        assert_eq!(vrf.take_injected(), 0);
    }

    #[test]
    fn register_write_corruption_flips_one_bit() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        let mut fm = FaultModel::new(11, 64);
        fm.set_write_corruption_rate(1.0);
        vrf.set_fault_model(Some(fm));
        vrf.write_lane_values(0, &[0u64; 64]);
        assert!(vrf.corrupt_register_write(0));
        let vals = vrf.read_lane_values(0);
        let set: u32 = vals.iter().map(|v| v.count_ones()).sum();
        assert_eq!(set, 1, "exactly one bit of one lane flipped");
        assert_eq!(vrf.take_injected(), 1);
        // Without a model the hook is inert.
        vrf.set_fault_model(None);
        assert!(!vrf.corrupt_register_write(0));
    }

    #[test]
    fn snapshot_restore_roundtrips_storage_and_mask_cache() {
        let mut vrf = BitPlaneVrf::new(100, 2);
        vrf.write_lane_values(0, &[0xabcd; 100]);
        vrf.set_plane_words(Plane::Mask, &[0xff, 0x0]);
        let snap = vrf.snapshot();
        let saved_masks = vrf.mask_lanes();
        vrf.write_lane_values(0, &[0; 100]);
        vrf.fill_plane(Plane::Mask, true);
        vrf.restore(&snap);
        assert_eq!(vrf.read_lane_values(0), vec![0xabcd; 100]);
        assert_eq!(vrf.mask_lanes(), saved_masks);
    }

    #[test]
    fn display_plane_names() {
        assert_eq!(Plane::Reg { reg: 3, bit: 7 }.to_string(), "r3.7");
        assert_eq!(Plane::Scratch(2).to_string(), "s2");
        assert_eq!(Plane::Cond.to_string(), "cond");
        assert_eq!(Plane::Mask.to_string(), "mask");
        assert_eq!(Plane::Const(true).to_string(), "const1");
    }
}
