//! Name-keyed model registry with lazy loading, LRU eviction and
//! non-disruptive hot swap.
//!
//! The paper's deployment is a scenario *matrix* — per device, per cipher,
//! sync vs desynchronised — so one engine process serves many models that
//! come and go while requests are in flight. The registry is the piece that
//! makes that safe:
//!
//! * **Names, not indices.** Models are keyed by scenario name (`"xmega-aes"`,
//!   `"stm32-present-desync"`), the identity carried on the wire. Slot order
//!   never leaks into the API, so swapping or evicting one model can never
//!   silently re-address another.
//! * **Lazy loading.** [`ModelRegistry::register`] records a model file path
//!   without touching the disk; the first [`ModelRegistry::resolve`] loads it
//!   through [`sca_locator::LocatorEngine::load`] (any `SCALOCEN` version).
//!   The registry lock is **not** held across file I/O — concurrent resolves
//!   of other models proceed, and two racing loads of the same model keep
//!   the winner's engine.
//! * **Generation pinning.** A [`ModelHandle`] carries an
//!   [`Arc<LocatorEngine>`] plus the generation it resolved. Requests hold
//!   their handle until they complete, so [`ModelRegistry::swap`] can install
//!   a new generation atomically while admitted requests finish
//!   **bit-identically** on the weights they were admitted against; nothing
//!   is ever torn out from under a running batch.
//! * **Byte-budgeted residency.** Every resident model is accounted at
//!   [`sca_locator::LocatorEngine::memory_footprint`] (exact weight bytes
//!   plus a deterministic estimate of one scoring workspace: the staged
//!   batch and the per-window scratch of the model's chain). When a load pushes the total
//!   over [`RegistryConfig::byte_budget`], least-recently-used file-backed
//!   models are evicted until it fits; pinned models (installed in-process
//!   via [`ModelRegistry::install`], no backing file) are never evicted.
//!   Eviction drops the registry's reference only — in-flight handles keep
//!   the weights alive until their requests drain — and does **not** bump
//!   the generation: a reload serves bit-identical scores.
//! * **Load-failure quarantine.** A model whose (re)load fails
//!   [`RegistryConfig::quarantine_after`] consecutive times enters a
//!   cooldown during which resolves fail fast with
//!   [`RegistryError::Quarantined`] instead of hammering a broken file on
//!   every request; the cooldown's expiry re-arms one real retry. A failed
//!   reload after an eviction additionally falls back to re-faulting the
//!   last known-good file (the pre-swap path), installing it as a fresh
//!   generation rather than going dark.
//!
//! Counters (loads, evictions, swaps, and the failure-domain counts:
//! I/O errors, corrupt loads, retries, quarantines) and the resident-bytes
//! gauge are lock-free reads, surfaced through the service's
//! [`MetricsSnapshot`](crate::MetricsSnapshot).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sca_locator::{LocatorEngine, PersistError};

use crate::faults::{FaultKind, FaultPlan, FaultSite};

/// Registry sizing; `Default` is an unbounded residency budget with a
/// 3-strike, 5-second load-failure quarantine.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Total resident-model byte budget (weights + workspace estimate per
    /// [`LocatorEngine::memory_footprint`]). `usize::MAX` disables
    /// eviction. The budget is enforced against *evictable* (file-backed)
    /// models: the most recently touched model always stays resident even
    /// if it alone exceeds the budget, and pinned models do not count
    /// against evictability (they can push the total over budget but are
    /// never evicted to make room).
    pub byte_budget: usize,
    /// Consecutive load failures before a model is quarantined (`0`
    /// disables quarantine entirely).
    pub quarantine_after: u32,
    /// How long a quarantined model rejects resolves with
    /// [`RegistryError::Quarantined`] before the next real load attempt.
    pub quarantine_cooldown: Duration,
    /// Deterministic fault injection at the model-load site (see
    /// [`crate::faults`]); the default empty plan injects nothing.
    pub faults: FaultPlan,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            byte_budget: usize::MAX,
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(5),
            faults: FaultPlan::default(),
        }
    }
}

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// No model is registered under the name.
    UnknownModel {
        /// The unresolved name.
        name: String,
    },
    /// Loading the model file failed (missing, foreign, corrupt — see
    /// [`PersistError`]).
    Load {
        /// The model whose load failed.
        name: String,
        /// The underlying persistence error.
        error: PersistError,
    },
    /// [`ModelRegistry::register`]/[`install`](ModelRegistry::install) with
    /// a name that is already taken (use [`ModelRegistry::swap`] to replace
    /// a model's weights).
    AlreadyRegistered {
        /// The contested name.
        name: String,
    },
    /// The operation needs a file-backed model but the name is pinned
    /// (installed in-process, nowhere to reload from).
    NotEvictable {
        /// The pinned model.
        name: String,
    },
    /// The model's file failed to load [`RegistryConfig::quarantine_after`]
    /// consecutive times; resolves fail fast until the cooldown expires
    /// instead of re-reading a broken file on every request.
    Quarantined {
        /// The quarantined model.
        name: String,
        /// Time left until the next real load attempt.
        retry_in: Duration,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel { name } => write!(f, "unknown model {name:?}"),
            RegistryError::Load { name, error } => {
                write!(f, "loading model {name:?} failed: {error}")
            }
            RegistryError::AlreadyRegistered { name } => {
                write!(f, "model {name:?} is already registered")
            }
            RegistryError::NotEvictable { name } => {
                write!(f, "model {name:?} is pinned in-process (no backing file)")
            }
            RegistryError::Quarantined { name, retry_in } => {
                write!(
                    f,
                    "model {name:?} is quarantined after repeated load failures \
                     (next attempt in {retry_in:?})"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Load { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A resolved model: the engine pinned at the generation it resolved.
///
/// Handles are cheap to clone (`Arc` bumps). A request holds its handle for
/// its whole lifetime, so swaps and evictions never affect work already
/// admitted — the weights stay alive until the last handle drops.
#[derive(Debug, Clone)]
pub struct ModelHandle {
    name: Arc<str>,
    generation: u64,
    engine: Arc<LocatorEngine>,
}

impl ModelHandle {
    /// The registered scenario name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The generation this handle pinned (bumped by swaps, not reloads).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pinned engine.
    pub fn engine(&self) -> &Arc<LocatorEngine> {
        &self.engine
    }

    /// Whether two handles pin the exact same resident weights (the
    /// scheduler's batch-compatibility test).
    pub fn same_weights(&self, other: &ModelHandle) -> bool {
        Arc::ptr_eq(&self.engine, &other.engine)
    }
}

/// A point-in-time copy of the registry gauges and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registered models (resident or not).
    pub models: usize,
    /// Models currently holding weights in memory.
    pub resident_models: usize,
    /// Total bytes of resident models ([`LocatorEngine::memory_footprint`]).
    pub resident_bytes: u64,
    /// The configured byte budget (`u64::MAX` = unbounded).
    pub byte_budget: u64,
    /// Model files loaded (cold loads + reloads + swap loads).
    pub loads: u64,
    /// Models evicted to fit the byte budget (or explicitly).
    pub evictions: u64,
    /// Generations installed by [`ModelRegistry::swap`].
    pub swaps: u64,
    /// Model loads that failed on file I/O.
    pub io_errors: u64,
    /// Model loads rejected by format validation (bad magic, unsupported
    /// version, failed checksum/structure check) — never served.
    pub corrupt_loads: u64,
    /// Load attempts made after a previous failure: post-cooldown retries
    /// and fallbacks to the last good file.
    pub retries: u64,
    /// Times a model entered quarantine.
    pub quarantines: u64,
}

struct Resident {
    engine: Arc<LocatorEngine>,
    bytes: usize,
}

struct Slot {
    name: Arc<str>,
    /// Backing file; `None` pins the model (installed in-process).
    path: Option<PathBuf>,
    /// Starts at 1; bumped by [`ModelRegistry::swap`] and by a fallback
    /// install (different weights must mean a different generation).
    generation: u64,
    resident: Option<Resident>,
    /// Tick of the last resolve (LRU order).
    last_used: u64,
    /// Consecutive load failures since the last successful load.
    failures: u32,
    /// Set while the model is quarantined; cleared by the next successful
    /// load (a stale past instant no longer blocks).
    quarantined_until: Option<Instant>,
    /// The pre-swap backing file — the last path other than `path` known to
    /// load. A failed reload falls back to it rather than going dark.
    fallback: Option<PathBuf>,
}

struct Inner {
    slots: Vec<Slot>,
    tick: u64,
}

/// The name-keyed model registry (see the [module docs](self)).
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    byte_budget: usize,
    quarantine_after: u32,
    quarantine_cooldown: Duration,
    faults: FaultPlan,
    resident_bytes: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
    swaps: AtomicU64,
    io_errors: AtomicU64,
    corrupt_loads: AtomicU64,
    retries: AtomicU64,
    quarantines: AtomicU64,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("byte_budget", &self.byte_budget)
            .field("resident_bytes", &self.resident_bytes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new(RegistryConfig::default())
    }
}

impl ModelRegistry {
    /// Creates an empty registry under `cfg.byte_budget`.
    pub fn new(cfg: RegistryConfig) -> Self {
        Self {
            inner: Mutex::new(Inner { slots: Vec::new(), tick: 0 }),
            byte_budget: cfg.byte_budget,
            quarantine_after: cfg.quarantine_after,
            quarantine_cooldown: cfg.quarantine_cooldown,
            faults: cfg.faults,
            resident_bytes: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            corrupt_loads: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// Registers a file-backed model under `name` without loading it — the
    /// first [`Self::resolve`] does. Any `SCALOCEN` version the engine can
    /// load (v1 f32, v2/v3 quantised) is eligible.
    ///
    /// # Errors
    ///
    /// [`RegistryError::AlreadyRegistered`] if the name is taken.
    pub fn register(
        &self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
    ) -> Result<(), RegistryError> {
        let name = name.into();
        let mut inner = self.lock();
        if inner.slots.iter().any(|s| &*s.name == name.as_str()) {
            return Err(RegistryError::AlreadyRegistered { name });
        }
        inner.slots.push(Slot {
            name: name.into(),
            path: Some(path.into()),
            generation: 1,
            resident: None,
            last_used: 0,
            failures: 0,
            quarantined_until: None,
            fallback: None,
        });
        Ok(())
    }

    /// Installs an in-process engine under `name`, **pinned**: with no
    /// backing file it is never evicted and cannot be lazily reloaded.
    ///
    /// # Errors
    ///
    /// [`RegistryError::AlreadyRegistered`] if the name is taken.
    pub fn install(
        &self,
        name: impl Into<String>,
        engine: LocatorEngine,
    ) -> Result<(), RegistryError> {
        let name = name.into();
        let bytes = engine.memory_footprint();
        let mut inner = self.lock();
        if inner.slots.iter().any(|s| &*s.name == name.as_str()) {
            return Err(RegistryError::AlreadyRegistered { name });
        }
        inner.slots.push(Slot {
            name: name.into(),
            path: None,
            generation: 1,
            resident: Some(Resident { engine: Arc::new(engine), bytes }),
            last_used: 0,
            failures: 0,
            quarantined_until: None,
            fallback: None,
        });
        self.resident_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Resolves `name` to a handle pinning the current generation, loading
    /// the model file on a cold hit and evicting LRU models to the byte
    /// budget afterwards. The registry lock is released across the file
    /// load, so resolves of other (resident) models are never blocked by a
    /// cold load.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered name,
    /// [`RegistryError::Load`] when reading the model file fails (the slot
    /// stays registered — a later resolve retries),
    /// [`RegistryError::Quarantined`] while the model is cooling down after
    /// repeated load failures.
    pub fn resolve(&self, name: &str) -> Result<ModelHandle, RegistryError> {
        let (slot_name, path, generation, retrying, fallback) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let Some(slot) = inner.slots.iter_mut().find(|s| &*s.name == name) else {
                return Err(RegistryError::UnknownModel { name: name.into() });
            };
            slot.last_used = tick;
            if let Some(resident) = &slot.resident {
                return Ok(ModelHandle {
                    name: Arc::clone(&slot.name),
                    generation: slot.generation,
                    engine: Arc::clone(&resident.engine),
                });
            }
            // Cold load needed: a quarantined model fails fast until its
            // cooldown expires, at which point exactly one resolve gets to
            // retry the real load.
            if let Some(until) = slot.quarantined_until {
                let now = Instant::now();
                if now < until {
                    return Err(RegistryError::Quarantined {
                        name: name.into(),
                        retry_in: until - now,
                    });
                }
            }
            let path = slot.path.clone().expect("a non-resident slot is always file-backed");
            let retrying = slot.failures > 0 || slot.quarantined_until.is_some();
            (Arc::clone(&slot.name), path, slot.generation, retrying, slot.fallback.clone())
        };

        // Cold: load outside the lock.
        if retrying {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        let engine = match self.load_file(&slot_name, &path) {
            Ok(engine) => engine,
            Err(error) => {
                self.note_load_failure(&slot_name);
                // Failed reload (e.g. after an eviction, against a file
                // that went bad post-swap): fall back to re-faulting the
                // last known-good file instead of going dark.
                if let Some(fb) = fallback.filter(|fb| fb != &path) {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if let Ok(engine) = self.load_file(&slot_name, &fb) {
                        return Ok(self.install_loaded(&slot_name, engine, Some(fb)));
                    }
                }
                return Err(error);
            }
        };

        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(slot) = inner.slots.iter_mut().find(|s| Arc::ptr_eq(&s.name, &slot_name)) else {
            // Deregistered while loading; serve the orphan load anyway.
            return Ok(ModelHandle { name: slot_name, generation, engine: Arc::new(engine) });
        };
        slot.last_used = tick;
        if let Some(resident) = &slot.resident {
            // A racing resolve (or swap) installed weights first — theirs
            // win, ours are dropped; every caller shares one Arc per
            // (name, generation) so batches coalesce.
            return Ok(ModelHandle {
                name: Arc::clone(&slot.name),
                generation: slot.generation,
                engine: Arc::clone(&resident.engine),
            });
        }
        slot.failures = 0;
        slot.quarantined_until = None;
        let bytes = engine.memory_footprint();
        let generation = slot.generation;
        let engine = Arc::new(engine);
        slot.resident = Some(Resident { engine: Arc::clone(&engine), bytes });
        self.resident_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let handle = ModelHandle { name: Arc::clone(&slot.name), generation, engine };
        self.evict_to_budget(&mut inner, &handle.name);
        Ok(handle)
    }

    /// Loads `path` and atomically installs it as `name`'s next generation:
    /// resolves ordered after the swap see the new weights, requests already
    /// holding a handle complete bit-identically on the old ones (kept
    /// alive by their `Arc`s until they drain). Works on pinned models too
    /// — the slot becomes file-backed. Returns the new generation.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered name;
    /// [`RegistryError::Load`] if reading the file fails — the old
    /// generation keeps serving untouched.
    pub fn swap(&self, name: &str, path: impl Into<PathBuf>) -> Result<u64, RegistryError> {
        let path = path.into();
        {
            // Fail fast (and avoid a wasted load) for unknown names.
            let inner = self.lock();
            if !inner.slots.iter().any(|s| &*s.name == name) {
                return Err(RegistryError::UnknownModel { name: name.into() });
            }
        }
        let engine = self.load_file(name, &path)?;
        let bytes = engine.memory_footprint();

        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(slot) = inner.slots.iter_mut().find(|s| &*s.name == name) else {
            return Err(RegistryError::UnknownModel { name: name.into() });
        };
        if let Some(old) = slot.resident.take() {
            self.resident_bytes.fetch_sub(old.bytes as u64, Ordering::Relaxed);
        }
        // The outgoing file is the proven-good fallback should the new one
        // fail a reload after an eviction.
        if let Some(old_path) = slot.path.take() {
            if old_path != path {
                slot.fallback = Some(old_path);
            }
        }
        slot.generation += 1;
        slot.path = Some(path);
        slot.last_used = tick;
        slot.failures = 0;
        slot.quarantined_until = None;
        slot.resident = Some(Resident { engine: Arc::new(engine), bytes });
        self.resident_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let generation = slot.generation;
        let name = Arc::clone(&slot.name);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.evict_to_budget(&mut inner, &name);
        Ok(generation)
    }

    /// Drops `name`'s resident weights (a later resolve reloads them from
    /// the backing file, same generation, bit-identical scores). In-flight
    /// handles keep the weights alive until they drain. A no-op if the
    /// model is registered but not resident.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered name,
    /// [`RegistryError::NotEvictable`] for a pinned model (nowhere to
    /// reload from).
    pub fn evict(&self, name: &str) -> Result<(), RegistryError> {
        let mut inner = self.lock();
        let Some(slot) = inner.slots.iter_mut().find(|s| &*s.name == name) else {
            return Err(RegistryError::UnknownModel { name: name.into() });
        };
        if slot.path.is_none() {
            return Err(RegistryError::NotEvictable { name: name.into() });
        }
        if let Some(old) = slot.resident.take() {
            self.resident_bytes.fetch_sub(old.bytes as u64, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The registered model names, in registration order.
    pub fn names(&self) -> Vec<Arc<str>> {
        self.lock().slots.iter().map(|s| Arc::clone(&s.name)).collect()
    }

    /// Whether `name` is registered (resident or not).
    pub fn contains(&self, name: &str) -> bool {
        self.lock().slots.iter().any(|s| &*s.name == name)
    }

    /// A point-in-time copy of the registry gauges and counters.
    pub fn stats(&self) -> RegistryStats {
        let (models, resident_models) = {
            let inner = self.lock();
            (inner.slots.len(), inner.slots.iter().filter(|s| s.resident.is_some()).count())
        };
        RegistryStats {
            models,
            resident_models,
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            byte_budget: if self.byte_budget == usize::MAX {
                u64::MAX
            } else {
                self.byte_budget as u64
            },
            loads: self.loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            corrupt_loads: self.corrupt_loads.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }

    // -- internals ----------------------------------------------------------

    /// Poison-tolerant lock: the registry's invariants hold at every await
    /// point inside the lock, so a panicking peer leaves consistent state.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        crate::lock_poisoned(&self.inner)
    }

    fn load_file(&self, name: &str, path: &Path) -> Result<LocatorEngine, RegistryError> {
        match self.faults.check(FaultSite::ModelLoad) {
            Some(FaultKind::IoError) => {
                let error = PersistError::Io("injected model-load I/O fault".into());
                self.classify_load_error(&error);
                return Err(RegistryError::Load { name: name.into(), error });
            }
            Some(FaultKind::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultKind::CorruptBytes) => {
                // Read the real file, flip one byte mid-payload, and parse
                // from memory: against a checksummed v4 file this must
                // surface as a typed `Corrupt`, never as garbage weights.
                let result = std::fs::read(path)
                    .map_err(|e| PersistError::Io(e.to_string()))
                    .and_then(|mut bytes| {
                        if !bytes.is_empty() {
                            let mid = bytes.len() / 2;
                            bytes[mid] ^= 0x01;
                        }
                        LocatorEngine::load_from(&bytes[..])
                    });
                return match result {
                    Ok(engine) => {
                        // Only possible for legacy pre-checksum formats —
                        // precisely the gap v4 closes.
                        self.loads.fetch_add(1, Ordering::Relaxed);
                        Ok(engine)
                    }
                    Err(error) => {
                        self.classify_load_error(&error);
                        Err(RegistryError::Load { name: name.into(), error })
                    }
                };
            }
            Some(_) | None => {}
        }
        match LocatorEngine::load(path) {
            Ok(engine) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                Ok(engine)
            }
            Err(error) => {
                self.classify_load_error(&error);
                Err(RegistryError::Load { name: name.into(), error })
            }
        }
    }

    fn classify_load_error(&self, error: &PersistError) {
        match error {
            PersistError::Io(_) => self.io_errors.fetch_add(1, Ordering::Relaxed),
            PersistError::BadMagic
            | PersistError::UnsupportedVersion(_)
            | PersistError::Corrupt(_) => self.corrupt_loads.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records one load failure against `name`; the
    /// [`RegistryConfig::quarantine_after`]-th consecutive failure starts
    /// the cooldown.
    fn note_load_failure(&self, name: &Arc<str>) {
        if self.quarantine_after == 0 {
            return;
        }
        let mut inner = self.lock();
        let Some(slot) = inner.slots.iter_mut().find(|s| Arc::ptr_eq(&s.name, name)) else {
            return;
        };
        slot.failures += 1;
        if slot.failures >= self.quarantine_after {
            slot.failures = 0;
            slot.quarantined_until = Some(Instant::now() + self.quarantine_cooldown);
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Installs a fallback-loaded engine as `name`'s next generation (the
    /// weights differ from the failed target, so the generation must move)
    /// and repoints the slot at `new_path`.
    fn install_loaded(
        &self,
        name: &Arc<str>,
        engine: LocatorEngine,
        new_path: Option<PathBuf>,
    ) -> ModelHandle {
        let bytes = engine.memory_footprint();
        let engine = Arc::new(engine);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(slot) = inner.slots.iter_mut().find(|s| Arc::ptr_eq(&s.name, name)) else {
            // Deregistered while loading; serve the orphan load anyway.
            return ModelHandle { name: Arc::clone(name), generation: 0, engine };
        };
        slot.last_used = tick;
        if let Some(resident) = &slot.resident {
            // A racing resolve beat the fallback; theirs win.
            return ModelHandle {
                name: Arc::clone(&slot.name),
                generation: slot.generation,
                engine: Arc::clone(&resident.engine),
            };
        }
        if let Some(new_path) = new_path {
            slot.path = Some(new_path);
        }
        slot.fallback = None;
        slot.failures = 0;
        slot.quarantined_until = None;
        slot.generation += 1;
        slot.resident = Some(Resident { engine: Arc::clone(&engine), bytes });
        self.resident_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let handle =
            ModelHandle { name: Arc::clone(&slot.name), generation: slot.generation, engine };
        self.evict_to_budget(&mut inner, &handle.name);
        handle
    }

    /// Evicts least-recently-used file-backed residents until the total is
    /// within budget. `keep` (the slot just touched) is never evicted, so a
    /// single model larger than the whole budget still serves.
    fn evict_to_budget(&self, inner: &mut Inner, keep: &Arc<str>) {
        while self.resident_bytes.load(Ordering::Relaxed) > self.byte_budget as u64 {
            let Some(victim) = inner
                .slots
                .iter_mut()
                .filter(|s| s.resident.is_some() && s.path.is_some() && !Arc::ptr_eq(&s.name, keep))
                .min_by_key(|s| s.last_used)
            else {
                return; // nothing evictable left; allow over-budget
            };
            let old = victim.resident.take().expect("victim filtered on residency");
            self.resident_bytes.fetch_sub(old.bytes as u64, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}
