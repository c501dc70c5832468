//! The I2M decoder's template lookup: a recipe cache (paper Fig. 9).
//!
//! The recipe table can only hold a few thousand micro-op templates, so the
//! control path dynamically caches recipes as instructions are issued. We
//! model a capacity-bounded cache keyed by the encoded instruction word
//! (operands included — the template filler's work is folded into the
//! cached entry), with LRU replacement and hit/miss counters. Baseline
//! datapaths decode every instruction from scratch. Each entry carries
//! both the synthesized micro-op sequence and its geometry-specialized
//! [`CompiledRecipe`], so plane-address resolution happens once per
//! template rather than once per executed micro-op.
//!
//! Recipes are held behind [`Arc`] so an [`Mpu`](crate::Mpu) is `Send` and
//! chip sweeps can fan out across threads. Concurrent runs may also share a
//! [`RecipePool`]: a host-side synthesis memo that skips re-deriving the
//! micro-op sequence for an instruction another thread already lowered.
//! The pool is invisible to the simulated machine — per-MPU hit/miss
//! counters and the miss penalty model the *hardware* template fetch and
//! are charged identically with or without a pool, so pooled and unpooled
//! runs produce bit-identical statistics.

use mpu_isa::Instruction;
use parking_lot::RwLock;
use pum_backend::{BodySegment, CompiledRecipe, DatapathModel, OptStats, Recipe, RecipeCtx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A recipe cache entry: the synthesized micro-op sequence plus its
/// pre-compiled form (plane addresses resolved for the owning datapath's
/// VRF geometry). Both are `Arc`-shared with the pool, so cloning an entry
/// is two reference bumps.
#[derive(Debug, Clone)]
pub struct CachedRecipe {
    /// The synthesized micro-op sequence (costing, histograms, display).
    pub recipe: Arc<Recipe>,
    /// The geometry-specialized compiled form executed on the hot path.
    pub compiled: Arc<CompiledRecipe>,
}

/// A process-wide memo of synthesized recipes, shared across concurrent
/// simulations.
///
/// Recipe templates are keyed by `(RecipeCtx, encoded instruction)`:
/// synthesis is a pure function of that pair, so datapaths that agree on
/// logic family, temporary registers, *and optimizer configuration*
/// (including ablated variants of the same
/// [`pum_backend::DatapathKind`]) reuse each other's work safely — and
/// datapaths that disagree on any of them, notably an optimizer flag
/// flipped against a warm pool, can never be served each other's
/// templates. Compiled forms additionally key on the VRF geometry
/// `(lanes, regs)` they were resolved for.
#[derive(Debug, Default)]
pub struct RecipePool {
    templates: RwLock<HashMap<(RecipeCtx, u32), Template>>,
    compiled: RwLock<HashMap<CompiledKey, Arc<CompiledRecipe>>>,
    segments: RwLock<HashMap<SegmentKey, Arc<BodySegment>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    opt: RwLock<OptStats>,
}

/// Counter snapshot for a [`RecipePool`]: host-side template-memo traffic.
///
/// These are *not* part of the simulated machine's [`crate::Stats`] — the
/// pool is invisible to the modeled hardware, and folding its counters into
/// per-MPU stats would break the pooled ≡ unpooled bit-identity guarantee.
/// They answer the engineering question "how much synthesis did the memo
/// actually save?", and `hits + misses == lookups` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Template probes that resolved to a recipe (control-path
    /// instructions without a recipe are not counted).
    pub lookups: u64,
    /// Probes answered from the memo without synthesizing.
    pub hits: u64,
    /// Probes that synthesized a new template. Under a synthesis race both
    /// threads count a miss even though one insert wins — the counter
    /// reports work performed, not table growth.
    pub misses: u64,
    /// Per-rule recipe-optimizer attribution accumulated over every
    /// synthesis this pool performed (counted or not): each template miss
    /// pays one optimizer pass, and this records what that pass bought.
    pub opt: OptStats,
}

/// A memoized template. `unprobed` marks one that segment fusion
/// synthesized ahead of execution: its first counted probe is the one
/// that synthesis served, so it counts as the miss — pool counters then
/// read the same whether execution or fusion synthesized a template.
#[derive(Debug)]
struct Template {
    recipe: Arc<Recipe>,
    unprobed: AtomicBool,
}

/// Memo key for a compiled form: synthesis context, encoded instruction,
/// and the VRF geometry `(lanes, regs)` it was resolved for.
type CompiledKey = (RecipeCtx, u32, usize, usize);

/// Memo key for a fused body segment: synthesis context, the encoded
/// segment (collision-proof — the words *are* the segment), and the VRF
/// geometry `(lanes, regs)` it was fused for.
type SegmentKey = (RecipeCtx, Vec<u32>, usize, usize);

impl RecipePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the recipe for `instr` on `datapath`, synthesizing and
    /// memoizing it on first use. `None` for control-path instructions
    /// that have no recipe.
    pub fn get_or_build(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<Arc<Recipe>> {
        Some(self.get_or_build_inner(datapath, instr, true)?.0)
    }

    /// [`Self::get_or_build`] plus whether the template was already
    /// memoized (`true` = pool hit). When `count` is false the probe is
    /// left out of the traffic counters (used by segment fusion, whose
    /// probes are one-time and amortized behind the segment memo — counting
    /// them would make pool statistics depend on memo warmth rather than
    /// on the executed instruction stream).
    fn get_or_build_inner(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
        count: bool,
    ) -> Option<(Arc<Recipe>, bool)> {
        let key = (datapath.recipe_ctx(), instr.encode());
        if let Some(t) = self.templates.read().get(&key) {
            let hit = !(count
                && t.unprobed.load(Ordering::Relaxed)
                && t.unprobed.swap(false, Ordering::Relaxed));
            if count {
                self.lookups.fetch_add(1, Ordering::Relaxed);
                let counter = if hit { &self.hits } else { &self.misses };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            return Some((Arc::clone(&t.recipe), hit));
        }
        // Synthesize outside the write lock; a racing thread may do the
        // same work, but the first insert wins and both get the same entry.
        let (recipe, opt) = datapath.recipe_with_stats(instr)?;
        let recipe = Arc::new(recipe);
        self.opt.write().merge(&opt);
        if count {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut templates = self.templates.write();
        let t =
            templates.entry(key).or_insert(Template { recipe, unprobed: AtomicBool::new(!count) });
        Some((Arc::clone(&t.recipe), false))
    }

    /// Returns the recipe for `instr` together with its compiled form for
    /// `datapath`'s VRF geometry, memoizing both on first use.
    pub fn get_or_build_compiled(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<CachedRecipe> {
        Some(self.get_or_build_compiled_inner(datapath, instr)?.0)
    }

    /// [`Self::get_or_build_compiled`] plus whether the *template* was a
    /// pool hit (compiled-form memoization is not separately counted).
    fn get_or_build_compiled_inner(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, bool)> {
        self.build_compiled(datapath, instr, true)
    }

    /// Shared body of the compiled-form getters; `count` selects whether
    /// the template probe enters the pool's traffic counters.
    fn build_compiled(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
        count: bool,
    ) -> Option<(CachedRecipe, bool)> {
        let (recipe, template_hit) = self.get_or_build_inner(datapath, instr, count)?;
        let g = datapath.geometry();
        let key = (datapath.recipe_ctx(), instr.encode(), g.lanes_per_vrf, g.regs_per_vrf);
        if let Some(compiled) = self.compiled.read().get(&key) {
            let entry = CachedRecipe { recipe, compiled: Arc::clone(compiled) };
            return Some((entry, template_hit));
        }
        let compiled = Arc::new(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
        let mut map = self.compiled.write();
        let compiled = Arc::clone(map.entry(key).or_insert(compiled));
        Some((CachedRecipe { recipe, compiled }, template_hit))
    }

    /// Returns the fused [`BodySegment`] for a run of body instructions on
    /// `datapath` (see [`pum_backend::fuse_segment_with`]), fusing and
    /// memoizing it on first use. Recipes are resolved through the pool's
    /// template *and* compiled memos, so fusion never re-synthesizes or
    /// re-compiles work the pool already holds — and a preloaded, possibly
    /// deliberately corrupted, template reaches the fused segment exactly
    /// as it reaches per-instruction execution. Fusion probes stay out of
    /// the pool's traffic counters: they are one-time (amortized behind
    /// this segment memo), so counting them would make [`Self::stats`]
    /// depend on memo warmth instead of the executed instruction stream. A
    /// template fusion synthesizes is counted as a miss at its first
    /// executed probe instead.
    pub fn get_or_fuse_segment(
        &self,
        datapath: &DatapathModel,
        body: &[Instruction],
    ) -> Arc<BodySegment> {
        let g = datapath.geometry();
        let words: Vec<u32> = body.iter().map(Instruction::encode).collect();
        let key = (datapath.recipe_ctx(), words, g.lanes_per_vrf, g.regs_per_vrf);
        if let Some(segment) = self.segments.read().get(&key) {
            return Arc::clone(segment);
        }
        // Fuse outside the write lock; a racing thread may duplicate the
        // work, but the first insert wins and both get the same entry.
        let segment = Arc::new(pum_backend::fuse_segment_with(datapath, body, |dp, instr| {
            let (entry, _) = self.build_compiled(dp, instr, false)?;
            Some((entry.recipe, entry.compiled))
        }));
        let mut segments = self.segments.write();
        Arc::clone(segments.entry(key).or_insert(segment))
    }

    /// Snapshot of the pool's lookup counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            opt: *self.opt.read(),
        }
    }

    /// Installs an explicit template for `(ctx, instr)`, replacing any
    /// memoized one and dropping stale compiled forms derived from it.
    ///
    /// This is the conformance harness's fault-injection hook: preloading a
    /// deliberately corrupted recipe (built with
    /// [`pum_backend::Recipe::from_ops`]) makes every pooled MPU execute
    /// the corrupted sequence on both the interpreted and compiled paths,
    /// which the differential suite must then catch. Preload before any
    /// simulation uses the pool.
    pub fn preload(&self, ctx: RecipeCtx, instr: &Instruction, recipe: Recipe) {
        let word = instr.encode();
        let t = Template { recipe: Arc::new(recipe), unprobed: AtomicBool::new(false) };
        self.templates.write().insert((ctx, word), t);
        self.compiled.write().retain(|&(c, w, _, _), _| !(c == ctx && w == word));
        // Fused segments bake the instruction's compiled ops in; drop any
        // derived from the replaced template.
        self.segments.write().retain(|(c, words, _, _), _| !(*c == ctx && words.contains(&word)));
    }

    /// Number of memoized templates.
    pub fn len(&self) -> usize {
        self.templates.read().len()
    }

    /// True if nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.templates.read().is_empty()
    }
}

/// Outcome of a [`RecipeCache::lookup`]: the architectural (per-MPU table)
/// hit flag plus, when a miss consulted a shared [`RecipePool`], whether
/// the pool already held the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupOutcome {
    /// Per-MPU table hit (the flag [`RecipeCache::lookup`] reports).
    pub hit: bool,
    /// Pool-template outcome; `None` on a hit or without a pool.
    pub pool: Option<bool>,
}

/// The architectural slice of a [`RecipeCache`] captured by
/// [`RecipeCache::checkpoint`]: template entries with their LRU stamps,
/// the synthesis context, and the hit/miss/clock counters. Part of an
/// [`crate::MpuCheckpoint`] — resuming with a cold cache would change the
/// miss stream and break byte-identical resume.
#[derive(Debug, Clone)]
pub(crate) struct CacheCheckpoint {
    entries: Vec<(u32, CachedRecipe, u64)>,
    ctx: Option<RecipeCtx>,
    opt: OptStats,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A bounded LRU cache of synthesized recipes (with their compiled forms).
#[derive(Debug)]
pub struct RecipeCache {
    capacity: usize,
    entries: HashMap<u32, (CachedRecipe, u64)>,
    pool: Option<Arc<RecipePool>>,
    /// Fused body segments keyed by the encoded segment. Host-side only —
    /// distinct from the architectural template table above: segment
    /// lookups never advance the LRU clock or the hit/miss counters,
    /// exactly as a shared [`RecipePool`] never does. Segments per program
    /// are few, so the memo is unbounded.
    segments: HashMap<Vec<u32>, Arc<BodySegment>>,
    /// Recipes synthesized as a by-product of pool-less fusion, kept so
    /// segment replay's probes (and later architectural misses) reuse
    /// them instead of lowering the instruction a second time. Like a
    /// shared [`RecipePool`], this is purely a host-side memo: miss
    /// accounting and the LRU clock are unchanged.
    synth_memo: HashMap<u32, CachedRecipe>,
    /// The synthesis context (logic family, temp registers, optimizer
    /// config) every cached entry was lowered under. The per-MPU table is
    /// keyed by instruction word alone, so if the owning datapath's
    /// context ever changes — e.g. the recipe optimizer is toggled against
    /// a warm cache — the whole table (and both host-side memos) is
    /// flushed rather than serving templates from the stale context.
    ctx: Option<RecipeCtx>,
    /// Optimizer attribution for pool-less synthesis performed by this
    /// cache (pooled synthesis accumulates in [`PoolStats::opt`] instead).
    opt: OptStats,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RecipeCache {
    /// Creates a cache with room for `capacity` recipes (Table III: 1024).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            pool: None,
            segments: HashMap::new(),
            synth_memo: HashMap::new(),
            ctx: None,
            opt: OptStats::default(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Attaches a shared synthesis pool; misses consult it before lowering
    /// the instruction from scratch. Purely a host-side optimization —
    /// hit/miss accounting is unchanged.
    pub fn set_pool(&mut self, pool: Arc<RecipePool>) {
        self.pool = Some(pool);
    }

    /// Looks up (or synthesizes, compiles, and caches) the recipe for
    /// `instr`, reporting whether it was a hit. Returns `None` for
    /// control-path instructions that have no recipe.
    pub fn lookup(
        &mut self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, bool)> {
        let (entry, outcome) = self.lookup_traced(datapath, instr)?;
        Some((entry, outcome.hit))
    }

    /// [`Self::lookup`] plus, on a per-MPU miss that consulted a shared
    /// [`RecipePool`], whether the pool already had the template. Used by
    /// the tracing layer; architectural accounting is identical.
    /// Flushes every cached entry and host-side memo if `datapath`'s
    /// synthesis context differs from the one the cache was warmed under.
    /// Hit/miss counters and the LRU clock keep running — the flush models
    /// a table invalidation, not a fresh table.
    fn refresh_ctx(&mut self, datapath: &DatapathModel) {
        let ctx = datapath.recipe_ctx();
        if self.ctx != Some(ctx) {
            if self.ctx.is_some() {
                self.entries.clear();
                self.segments.clear();
                self.synth_memo.clear();
            }
            self.ctx = Some(ctx);
        }
    }

    pub(crate) fn lookup_traced(
        &mut self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, LookupOutcome)> {
        self.refresh_ctx(datapath);
        let key = instr.encode();
        if let Some((entry, stamp)) = self.entries.get_mut(&key) {
            // The LRU clock only advances on lookups that actually touch
            // the table; recipe-less control instructions don't age entries.
            self.tick += 1;
            *stamp = self.tick;
            self.hits += 1;
            return Some((entry.clone(), LookupOutcome { hit: true, pool: None }));
        }
        let (entry, pool) = match &self.pool {
            Some(pool) => {
                let (entry, template_hit) = pool.get_or_build_compiled_inner(datapath, instr)?;
                (entry, Some(template_hit))
            }
            None => match self.synth_memo.get(&key) {
                Some(entry) => (entry.clone(), None),
                None => {
                    let (recipe, opt) = datapath.recipe_with_stats(instr)?;
                    self.opt.merge(&opt);
                    let recipe = Arc::new(recipe);
                    let g = datapath.geometry();
                    let compiled = Arc::new(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
                    (CachedRecipe { recipe, compiled }, None)
                }
            },
        };
        self.tick += 1;
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            // Evict the least recently used template.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (entry.clone(), self.tick));
        Some((entry, LookupOutcome { hit: false, pool }))
    }

    /// Returns the fused [`BodySegment`] for a run of body instructions,
    /// fusing (through the shared pool when attached) and memoizing it on
    /// first use. Host-side only: never touches the architectural
    /// hit/miss/LRU state — segment replay still performs the real
    /// per-instruction [`Self::lookup_traced`] probes, so template-table
    /// statistics are bit-identical however a segment is stepped.
    pub(crate) fn lookup_segment(
        &mut self,
        datapath: &DatapathModel,
        body: &[Instruction],
    ) -> Arc<BodySegment> {
        self.refresh_ctx(datapath);
        let words: Vec<u32> = body.iter().map(Instruction::encode).collect();
        if let Some(segment) = self.segments.get(&words) {
            return Arc::clone(segment);
        }
        let segment = match &self.pool {
            Some(pool) => pool.get_or_fuse_segment(datapath, body),
            None => {
                let synth_memo = &mut self.synth_memo;
                let opt_stats = &mut self.opt;
                Arc::new(pum_backend::fuse_segment_with(datapath, body, |dp, instr| {
                    let entry = match synth_memo.entry(instr.encode()) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(v) => {
                            let (recipe, opt) = dp.recipe_with_stats(instr)?;
                            opt_stats.merge(&opt);
                            let recipe = Arc::new(recipe);
                            let g = dp.geometry();
                            let compiled =
                                Arc::new(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
                            v.insert(CachedRecipe { recipe, compiled })
                        }
                    };
                    Some((Arc::clone(&entry.recipe), Arc::clone(&entry.compiled)))
                }))
            }
        };
        self.segments.insert(words, Arc::clone(&segment));
        segment
    }

    /// Optimizer attribution for pool-less synthesis this cache performed.
    /// Zero whenever a shared pool is attached — pooled synthesis reports
    /// through [`RecipePool::stats`] instead.
    pub fn opt_stats(&self) -> OptStats {
        self.opt
    }

    /// Snapshots the *architectural* cache state: the template table with
    /// its LRU stamps, the synthesis context, and the hit/miss/clock
    /// counters. The host-side memos (`segments`, `synth_memo`) are
    /// deliberately excluded — they are invisible to the modeled hardware
    /// and rebuild on demand — and so is the pool attachment, which stays
    /// with the machine, not the checkpoint. Entries are `Arc`-shared, so
    /// a snapshot is cheap.
    pub(crate) fn checkpoint(&self) -> CacheCheckpoint {
        CacheCheckpoint {
            entries: self.entries.iter().map(|(&k, (e, s))| (k, e.clone(), *s)).collect(),
            ctx: self.ctx,
            opt: self.opt,
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores the architectural state captured by [`Self::checkpoint`].
    /// A machine resumed from a checkpoint must replay the same hit/miss
    /// stream (and thus the same miss-penalty cycles) an uninterrupted run
    /// would have seen, so the table contents, LRU stamps, and counters
    /// all come back; capacity and any attached pool are left as-is.
    pub(crate) fn restore_checkpoint(&mut self, cp: &CacheCheckpoint) {
        self.entries = cp.entries.iter().map(|(k, e, s)| (*k, (e.clone(), *s))).collect();
        if self.ctx != cp.ctx {
            // Host-side memos warmed under a different synthesis context
            // must not survive the restore.
            self.segments.clear();
            self.synth_memo.clear();
        }
        self.ctx = cp.ctx;
        self.opt = cp.opt;
        self.tick = cp.tick;
        self.hits = cp.hits;
        self.misses = cp.misses;
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lookups that touched the table (`hits + misses`); recipe-less
    /// control instructions are excluded.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Cached templates' encoded instruction words, least recently used
    /// first — the order eviction would take them in.
    pub fn lru_order(&self) -> Vec<u32> {
        let mut entries: Vec<(u64, u32)> =
            self.entries.iter().map(|(&word, (_, stamp))| (*stamp, word)).collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, word)| word).collect()
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::{BinaryOp, RegId};

    fn add(rd: u16) -> Instruction {
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(rd) }
    }

    #[test]
    fn second_lookup_hits() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_operands_are_different_templates() {
        // The cached entry includes filled-in operands, so ADD r0 r1 r2 and
        // ADD r0 r1 r3 occupy separate slots.
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        cache.lookup(&dp, &add(2)).unwrap();
        let (_, hit) = cache.lookup(&dp, &add(3)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(2);
        cache.lookup(&dp, &add(2)).unwrap();
        cache.lookup(&dp, &add(3)).unwrap();
        cache.lookup(&dp, &add(2)).unwrap(); // refresh r2
        cache.lookup(&dp, &add(4)).unwrap(); // evicts r3
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(hit, "recently used entry survived");
        let (_, hit) = cache.lookup(&dp, &add(3)).unwrap();
        assert!(!hit, "LRU entry was evicted");
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(2);
        for rd in 2..8 {
            cache.lookup(&dp, &add(rd)).unwrap();
            assert!(cache.len() <= 2, "len {} exceeds capacity", cache.len());
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 6);
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(1);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(hit, "sole entry is retained");
        let (_, hit) = cache.lookup(&dp, &add(3)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1, "capacity-1 cache holds exactly one entry");
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(!hit, "previous entry was evicted by the new one");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn repeated_key_refreshes_without_growth() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        for _ in 0..10 {
            cache.lookup(&dp, &add(2)).unwrap();
        }
        assert_eq!(cache.len(), 1, "repeated key must not duplicate entries");
        assert_eq!(cache.hits(), 9);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn tick_counts_only_real_lookups() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        cache.lookup(&dp, &add(2)).unwrap();
        // Control instructions have no recipe and must not advance the
        // LRU clock (they would otherwise skew recency stamps).
        assert!(cache.lookup(&dp, &Instruction::Nop).is_none());
        assert!(cache.lookup(&dp, &Instruction::Nop).is_none());
        cache.lookup(&dp, &add(2)).unwrap();
        assert_eq!(cache.tick(), cache.hits() + cache.misses());
        assert_eq!(cache.tick(), 2);
    }

    #[test]
    fn control_instructions_have_no_recipe() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(2);
        assert!(cache.lookup(&dp, &Instruction::Nop).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn pool_is_shared_and_transparent() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());

        let mut pooled = RecipeCache::new(4);
        pooled.set_pool(Arc::clone(&pool));
        let mut plain = RecipeCache::new(4);

        let (pr, ph) = pooled.lookup(&dp, &add(2)).unwrap();
        let (sr, sh) = plain.lookup(&dp, &add(2)).unwrap();
        assert_eq!(*pr.recipe, *sr.recipe, "pooled synthesis yields the same recipe");
        assert_eq!(ph, sh, "pool must not alter hit/miss behavior");
        assert_eq!(pool.len(), 1);

        // A second cache on the same pool reuses the memo but still counts
        // its own (hardware) miss.
        let mut second = RecipeCache::new(4);
        second.set_pool(Arc::clone(&pool));
        let (_, hit) = second.lookup(&dp, &add(2)).unwrap();
        assert!(!hit, "per-MPU miss is charged even on a pool hit");
        assert_eq!(pool.len(), 1, "no duplicate pool entries");
    }

    #[test]
    fn compiled_forms_are_pooled_per_geometry() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        let a = pool.get_or_build_compiled(&dp, &add(2)).unwrap();
        let b = pool.get_or_build_compiled(&dp, &add(2)).unwrap();
        assert!(Arc::ptr_eq(&a.compiled, &b.compiled), "compiled memo is shared");
        let g = dp.geometry();
        assert_eq!(a.compiled.lanes(), g.lanes_per_vrf);
        assert_eq!(a.compiled.regs(), g.regs_per_vrf);
        assert_eq!(a.compiled.len(), a.recipe.len());
    }

    #[test]
    fn pool_counters_track_memo_traffic() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        assert_eq!(pool.stats(), PoolStats::default());

        pool.get_or_build(&dp, &add(2)).unwrap();
        pool.get_or_build(&dp, &add(2)).unwrap();
        pool.get_or_build_compiled(&dp, &add(3)).unwrap();
        // Control instructions never reach the memo and are not counted.
        assert!(pool.get_or_build(&dp, &Instruction::Nop).is_none());

        let s = pool.stats();
        assert_eq!(s, PoolStats { lookups: 3, hits: 1, misses: 2, opt: s.opt });
        assert_eq!(s.hits + s.misses, s.lookups);
        // Each miss paid one optimizer pass; RACER ADD is known to shrink.
        assert!(s.opt.saved_uops() > 0, "pool misses accumulate optimizer savings");
        assert!(s.opt.total_fires() > 0, "per-rule fire counts accumulate");
    }

    #[test]
    fn opt_config_is_part_of_the_pool_memo_key() {
        // Flipping the optimizer against a warm pool must synthesize a
        // fresh (unoptimized) template, never serve the optimized one.
        let on = DatapathModel::racer();
        let off = DatapathModel::racer().with_opt_config(pum_backend::OptConfig::disabled());
        let pool = Arc::new(RecipePool::new());

        let optimized = pool.get_or_build(&on, &add(2)).unwrap();
        let plain = pool.get_or_build(&off, &add(2)).unwrap();
        assert_eq!(pool.len(), 2, "distinct opt configs occupy distinct pool slots");
        assert_eq!(pool.stats().misses, 2, "the flipped config cannot hit the warm memo");
        assert!(
            optimized.len() < plain.len(),
            "optimized template ({}) should be shorter than unoptimized ({})",
            optimized.len(),
            plain.len()
        );
        assert_eq!(plain.saved_uops(), 0, "disabled optimizer records no savings");
    }

    #[test]
    fn cache_flushes_when_synthesis_context_changes() {
        // The per-MPU table is keyed by instruction word alone, so toggling
        // the optimizer against a warm cache must invalidate it.
        let on = DatapathModel::racer();
        let off = DatapathModel::racer().with_opt_config(pum_backend::OptConfig::disabled());
        let mut cache = RecipeCache::new(4);

        let (warm, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(hit, "same context keeps hitting");

        let (fresh, hit) = cache.lookup(&off, &add(2)).unwrap();
        assert!(!hit, "context change flushes the warm entry");
        assert!(
            warm.recipe.len() < fresh.recipe.len(),
            "the flushed lookup resynthesizes under the new context"
        );

        let (back, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(!hit, "flipping back flushes again");
        assert_eq!(back.recipe.len(), warm.recipe.len());
    }

    #[test]
    fn pool_less_cache_accumulates_opt_stats() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        cache.lookup(&dp, &add(2)).unwrap();
        cache.lookup(&dp, &add(2)).unwrap();
        let s = cache.opt_stats();
        assert!(s.saved_uops() > 0, "pool-less synthesis reports optimizer savings");

        // With a pool attached, attribution flows to the pool instead.
        let pool = Arc::new(RecipePool::new());
        let mut pooled = RecipeCache::new(4);
        pooled.set_pool(Arc::clone(&pool));
        pooled.lookup(&dp, &add(3)).unwrap();
        assert_eq!(pooled.opt_stats(), OptStats::default());
        assert!(pool.stats().opt.saved_uops() > 0);
    }

    #[test]
    fn traced_lookup_reports_pool_outcome() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        let mut first = RecipeCache::new(4);
        first.set_pool(Arc::clone(&pool));

        let (_, o) = first.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(false) });
        let (_, o) = first.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: true, pool: None });

        // A second MPU on the same pool misses locally but hits the memo.
        let mut second = RecipeCache::new(4);
        second.set_pool(Arc::clone(&pool));
        let (_, o) = second.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(true) });

        // Without a pool there is no pool outcome to report.
        let mut plain = RecipeCache::new(4);
        let (_, o) = plain.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: None });
    }

    #[test]
    fn fusion_synthesized_templates_count_a_miss_at_their_first_probe() {
        // Pool counters read the same whether segment fusion or a counted
        // probe synthesized a template.
        let dp = DatapathModel::racer();
        let probed = RecipePool::new();
        let fused = RecipePool::new();
        fused.get_or_fuse_segment(&dp, &[add(2), add(3)]);
        assert_eq!(fused.stats().lookups, 0, "fusion probes are not counted");
        assert_eq!(fused.len(), 2);
        for pool in [&probed, &fused] {
            for rd in [2, 3, 2] {
                pool.get_or_build(&dp, &add(rd)).unwrap();
            }
        }
        assert_eq!(fused.stats(), probed.stats());
        let s = fused.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (3, 1, 2));
    }

    #[test]
    fn pool_is_safe_across_threads() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let dp = dp.clone();
                s.spawn(move || {
                    let mut cache = RecipeCache::new(8);
                    cache.set_pool(pool);
                    for rd in 2..6 {
                        cache.lookup(&dp, &add(rd)).unwrap();
                    }
                });
            }
        });
        assert_eq!(pool.len(), 4, "one entry per distinct instruction");
        let s = pool.stats();
        assert_eq!(s.lookups, 16, "4 threads x 4 instructions");
        assert_eq!(s.hits + s.misses, s.lookups, "counters are conserved under races");
        assert!(s.misses >= 4, "each distinct template was synthesized at least once");
    }
}
