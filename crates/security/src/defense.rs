//! The mechanism-under-test abstraction and its four implementations.
//!
//! A test case manipulates *handles* (allocations) and *pointers* (register
//! values derived from allocations). Every operation routes through the
//! defense's own allocator layout and check path, so the same case source
//! yields mechanism-specific outcomes — mirroring how the paper compiles
//! one test program under each protection scheme.
//!
//! The single [`Defense`] trait is consumed by the Table III matrix
//! ([`crate::table`]): GMOD (canary), GPUShield (region table), cuCatch
//! (shadow tags), LMI (OCU/EC over aligned allocators), and LMI with the
//! §XII-C liveness tracker all live here. These are models: the simulator
//! executes its own mechanisms, and only LMI is cross-checked against it
//! (the attack kernels of [`crate::sim_cases`]).

use std::collections::HashMap;

use lmi_alloc::{AlignmentPolicy, GlobalAllocator, SharedLayout, ThreadStack};
use lmi_baselines::canary::CanaryAllocator;
use lmi_baselines::cucatch::{CuCatch, Tag};
use lmi_core::{DevicePtr, ExtentChecker, LivenessTracker, Ocu, PtrConfig};
use lmi_mem::{layout, SparseMemory};

/// Memory region of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `cudaMalloc` global buffer (kernel argument).
    Global,
    /// In-kernel `malloc` device-heap buffer.
    Heap,
    /// Stack (`alloca`) buffer in the current frame.
    Local,
    /// Statically declared shared-memory buffer.
    SharedStatic,
    /// A logical sub-buffer of the dynamically sized shared pool.
    SharedDynamic,
}

/// An allocation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub usize);

/// A pointer value handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ptr(pub usize);

/// Result of a memory access under a defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The access proceeded unchecked.
    Allowed,
    /// The defense faulted the access.
    Faulted,
}

impl Outcome {
    /// Convenience predicate.
    pub fn faulted(self) -> bool {
        self == Outcome::Faulted
    }
}

/// A memory-safety mechanism under security evaluation.
pub trait Defense {
    /// Mechanism name (Table III column header).
    fn name(&self) -> &'static str;

    /// Allocates `size` bytes in `region`; local allocations join the
    /// current stack frame.
    fn alloc(&mut self, region: Region, size: u64) -> Handle;

    /// Base address of the allocation under this defense's layout.
    fn addr_of(&self, h: Handle) -> u64;

    /// The original pointer to an allocation.
    fn ptr_to(&mut self, h: Handle) -> Ptr;

    /// Pointer arithmetic: `p + delta` through the defense's checked
    /// pointer-update path (LMI's OCU). Returns the derived pointer.
    fn derive(&mut self, p: Ptr, delta: i64) -> Ptr;

    /// A `width`-byte write through `p`.
    fn write(&mut self, p: Ptr, width: u8) -> Outcome;

    /// A `width`-byte read through `p`.
    fn read(&mut self, p: Ptr, width: u8) -> Outcome;

    /// Runtime `free` of a heap/global allocation through pointer `p`.
    /// Returns `true` if the runtime rejected it (invalid/double free
    /// detection, provided by basic CUDA functions per §IX-B).
    fn free(&mut self, p: Ptr) -> bool;

    /// Enters a callee stack frame; subsequent local allocations belong to
    /// it until the matching [`Defense::end_frame`].
    fn begin_frame(&mut self);

    /// Ends the current stack frame (function return): all its local
    /// allocations go out of scope; the caller's frame becomes current.
    fn end_frame(&mut self);

    /// Synchronization-point scan (canary mechanisms); returns `true` if
    /// damage was detected.
    fn sync_scan(&mut self) -> bool {
        false
    }
}

/// Writes every byte position from `from` toward `to` inclusive (a
/// contiguous overrun, like a `memcpy` past the end — or a downward
/// underflow when `to < from`); returns `Faulted` as soon as any write
/// faults. This is the "adjacent" attack shape — it must cross whatever
/// sits between the buffer and the victim (canaries included).
pub fn overrun(d: &mut dyn Defense, base: Ptr, from: i64, to: i64) -> Outcome {
    let step = if to >= from { 1 } else { -1 };
    let mut off = from;
    loop {
        let p = d.derive(base, off);
        if d.write(p, 1).faulted() {
            return Outcome::Faulted;
        }
        if off == to {
            return Outcome::Allowed;
        }
        off += step;
    }
}

/// A single wild write at `delta` (the "non-adjacent" attack shape).
pub fn poke(d: &mut dyn Defense, base: Ptr, delta: i64) -> Outcome {
    let p = d.derive(base, delta);
    d.write(p, 4)
}

/// Delta (in bytes) from `attacker`'s base to `victim`'s base under the
/// defense's own layout — what an attacker's OOB index arithmetic must
/// produce to reach the victim.
pub fn victim_delta(d: &dyn Defense, attacker: Handle, victim: Handle) -> i64 {
    d.addr_of(victim) as i64 - d.addr_of(attacker) as i64
}

// ---------------------------------------------------------------------------
// Implementations
// ---------------------------------------------------------------------------

/// A simple packed bump allocator with exact-fit recycling — the layout
/// non-aligned mechanisms run on.
#[derive(Debug)]
struct PackedArena {
    cursor: u64,
    end: u64,
    align: u64,
    free: HashMap<u64, Vec<u64>>,
}

impl PackedArena {
    fn new(base: u64, len: u64, align: u64) -> PackedArena {
        PackedArena { cursor: base, end: base + len, align, free: HashMap::new() }
    }

    fn alloc(&mut self, size: u64) -> u64 {
        if let Some(list) = self.free.get_mut(&size) {
            if let Some(base) = list.pop() {
                return base;
            }
        }
        let base = self.cursor.next_multiple_of(self.align);
        assert!(base + size <= self.end, "security arena exhausted");
        self.cursor = base + size;
        base
    }

    fn release(&mut self, base: u64, size: u64) {
        self.free.entry(size).or_default().push(base);
    }
}

#[derive(Debug, Clone, Copy)]
struct Alloc {
    region: Region,
    base: u64,
    size: u64,
    frame: usize,
    live: bool,
}

/// Shared bookkeeping: allocations, pointers, runtime free validation.
#[derive(Debug)]
struct Book {
    allocs: Vec<Alloc>,
    /// pointer -> (raw value, provenance handle)
    ptrs: Vec<(u64, usize)>,
    /// Stack of live frame ids; the last entry is the current frame.
    frames: Vec<usize>,
    next_frame: usize,
}

impl Default for Book {
    fn default() -> Self {
        Book { allocs: Vec::new(), ptrs: Vec::new(), frames: vec![0], next_frame: 1 }
    }
}

impl Book {
    fn current_frame(&self) -> usize {
        *self.frames.last().expect("at least the root frame")
    }

    fn begin_frame(&mut self) {
        self.frames.push(self.next_frame);
        self.next_frame += 1;
    }

    /// Pops the current frame; returns its id (the root frame never pops).
    fn pop_frame(&mut self) -> usize {
        if self.frames.len() > 1 {
            self.frames.pop().expect("non-root frame")
        } else {
            // Ending the root frame: retire it and move to a fresh one.
            let old = self.frames[0];
            self.frames[0] = self.next_frame;
            self.next_frame += 1;
            old
        }
    }

    fn add_alloc(&mut self, region: Region, base: u64, size: u64) -> Handle {
        let frame = self.current_frame();
        self.allocs.push(Alloc { region, base, size, frame, live: true });
        Handle(self.allocs.len() - 1)
    }

    fn add_ptr(&mut self, raw: u64, handle: usize) -> Ptr {
        self.ptrs.push((raw, handle));
        Ptr(self.ptrs.len() - 1)
    }

    /// Runtime invalid/double-free validation (CUDA provides this for every
    /// mechanism, §IX-B). Returns `Some(handle)` on a valid free, `None`
    /// (= detected) otherwise.
    fn runtime_free(&mut self, p: Ptr) -> Option<usize> {
        let (raw, handle) = self.ptrs[p.0];
        let addr = DevicePtr::from_raw(raw).addr();
        let a = self.allocs[handle];
        if !a.live || addr != a.base {
            return None; // double free or invalid (interior/wild) free
        }
        self.allocs[handle].live = false;
        Some(handle)
    }
}

// ---------------------------------------------------------------------------
// LMI
// ---------------------------------------------------------------------------

/// LMI under evaluation: real aligned allocators, the OCU on every derive,
/// the EC on every access, compiler-style nullification at free/scope end,
/// and optionally the §XII-C liveness tracker.
pub struct LmiDefense {
    cfg: PtrConfig,
    ocu: Ocu,
    ec: ExtentChecker,
    global: GlobalAllocator,
    heap: GlobalAllocator,
    stack: ThreadStack,
    shared: SharedLayout,
    shared_pool: Option<(u64, u64, u64)>, // (raw pool ptr, base, cursor)
    book: Book,
    tracker: Option<LivenessTracker>,
}

impl LmiDefense {
    /// Base LMI (paper §IV–§VIII).
    pub fn new() -> LmiDefense {
        Self::build(false)
    }

    /// LMI plus pointer liveness tracking (paper §XII-C).
    pub fn with_liveness() -> LmiDefense {
        Self::build(true)
    }

    fn build(track: bool) -> LmiDefense {
        let cfg = PtrConfig::default();
        LmiDefense {
            cfg,
            ocu: Ocu::new(cfg),
            ec: ExtentChecker::new(cfg),
            global: GlobalAllocator::new(
                cfg,
                AlignmentPolicy::PowerOfTwo,
                layout::GLOBAL_BASE,
                1 << 30,
            ),
            heap: GlobalAllocator::new(
                cfg,
                AlignmentPolicy::PowerOfTwo,
                layout::HEAP_BASE,
                1 << 30,
            ),
            stack: ThreadStack::new(cfg, AlignmentPolicy::PowerOfTwo, layout::LOCAL_BASE, 1 << 20),
            shared: SharedLayout::new(
                cfg,
                AlignmentPolicy::PowerOfTwo,
                layout::SHARED_BASE,
                192 * 1024,
            ),
            shared_pool: None,
            book: Book::default(),
            tracker: track.then(|| LivenessTracker::new(cfg)),
        }
    }

    fn check(&self, raw: u64) -> Outcome {
        if self.ec.check_access(raw).is_err() {
            return Outcome::Faulted;
        }
        if let Some(tracker) = &self.tracker {
            let p = DevicePtr::from_raw(raw);
            // The tracker covers heap/global objects (Algorithm 1 hooks
            // malloc/free); stack and shared lifetimes are compiler-managed.
            if p.is_valid(&self.cfg)
                && (p.addr() >= layout::GLOBAL_BASE && p.addr() < layout::LOCAL_BASE)
                && tracker.check_live(p).is_err()
            {
                return Outcome::Faulted;
            }
        }
        Outcome::Allowed
    }
}

impl Default for LmiDefense {
    fn default() -> Self {
        Self::new()
    }
}

impl Defense for LmiDefense {
    fn name(&self) -> &'static str {
        if self.tracker.is_some() {
            "LMI+liveness"
        } else {
            "LMI"
        }
    }

    fn alloc(&mut self, region: Region, size: u64) -> Handle {
        let raw = match region {
            Region::Global => self.global.alloc(size).expect("arena"),
            Region::Heap => self.heap.alloc(size).expect("arena"),
            Region::Local => self.stack.push(size).expect("stack"),
            Region::SharedStatic => self.shared.place_static(size).expect("shared"),
            Region::SharedDynamic => {
                // Sub-buffers carve the coarse pool: one extent for the
                // whole pool (paper §IX-A).
                if self.shared_pool.is_none() {
                    let raw = self.shared.place_dynamic_pool().expect("pool");
                    let base = DevicePtr::from_raw(raw).addr();
                    self.shared_pool = Some((raw, base, base));
                }
                let (raw_pool, pool_base, cursor) = self.shared_pool.unwrap();
                let sub = cursor;
                self.shared_pool = Some((raw_pool, pool_base, cursor + size.next_multiple_of(8)));
                // Pointer = pool pointer advanced to the sub-buffer.
                let delta = sub as i64 - pool_base as i64;
                let (derived, _) =
                    self.ocu.check_marked(raw_pool, raw_pool.wrapping_add(delta as u64));
                let h = self.book.add_alloc(region, sub, size);
                self.book.add_ptr(derived, h.0);
                return h;
            }
        };
        let base = DevicePtr::from_raw(raw).addr();
        let h = self.book.add_alloc(region, base, size);
        self.book.add_ptr(raw, h.0);
        if let Some(tracker) = &mut self.tracker {
            if matches!(region, Region::Global | Region::Heap) {
                let _ = tracker.on_malloc(DevicePtr::from_raw(raw));
            }
        }
        h
    }

    fn addr_of(&self, h: Handle) -> u64 {
        self.book.allocs[h.0].base
    }

    fn ptr_to(&mut self, h: Handle) -> Ptr {
        // The canonical pointer is the one created at allocation time: the
        // h-th allocation's first pointer. Find it by provenance.
        let idx = self
            .book
            .ptrs
            .iter()
            .position(|&(_, owner)| owner == h.0)
            .expect("allocation created a pointer");
        Ptr(idx)
    }

    fn derive(&mut self, p: Ptr, delta: i64) -> Ptr {
        let (raw, owner) = self.book.ptrs[p.0];
        let (out, _) = self.ocu.check_marked(raw, raw.wrapping_add(delta as u64));
        self.book.add_ptr(out, owner)
    }

    fn write(&mut self, p: Ptr, _width: u8) -> Outcome {
        self.check(self.book.ptrs[p.0].0)
    }

    fn read(&mut self, p: Ptr, _width: u8) -> Outcome {
        self.check(self.book.ptrs[p.0].0)
    }

    fn free(&mut self, p: Ptr) -> bool {
        let (raw, owner) = self.book.ptrs[p.0];
        // LMI's free() reads the extent to locate the buffer, so a pointer
        // whose extent was already nullified (earlier free) is rejected —
        // catching double frees even after the region was recycled.
        if !DevicePtr::from_raw(raw).is_valid(&self.cfg) {
            return true;
        }
        let region = self.book.allocs[owner].region;
        let result = match region {
            Region::Global => self.global.free(raw),
            Region::Heap => self.heap.free(raw),
            _ => return true, // freeing non-heap memory: invalid, rejected
        };
        match result {
            Ok(()) => {
                // Compiler-inserted extent nullification (§VIII) on the
                // pointer passed to free — copies are NOT nullified.
                self.book.ptrs[p.0].0 = lmi_core::invalidate_extent(raw);
                self.book.allocs[owner].live = false;
                if let Some(tracker) = &mut self.tracker {
                    let _ = tracker.on_free(DevicePtr::from_raw(raw));
                }
                false
            }
            Err(_) => true, // runtime detected invalid/double free
        }
    }

    fn begin_frame(&mut self) {
        self.book.begin_frame();
    }

    fn end_frame(&mut self) {
        // §VIII + §XII-B: pointers cannot be stored to memory, so the
        // compiler sees every value derived from a frame's allocas and
        // nullifies them all at scope exit.
        let frame = self.book.pop_frame();
        let dead: Vec<usize> = self
            .book
            .allocs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.region == Region::Local && a.frame == frame && a.live)
            .map(|(i, _)| i)
            .collect();
        for &owner in &dead {
            self.book.allocs[owner].live = false;
            self.stack.pop();
        }
        for (raw, owner) in &mut self.book.ptrs {
            if dead.contains(owner) {
                *raw = lmi_core::invalidate_extent(*raw);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// GPUShield
// ---------------------------------------------------------------------------

/// GPUShield: fine-grained bounds for registered global (kernel-argument)
/// buffers, single-region checks for heap and stack, nothing for shared,
/// no temporal safety (the bounds table is not updated on free).
pub struct GpuShieldDefense {
    global: PackedArena,
    heap: PackedArena,
    stack: PackedArena,
    shared: PackedArena,
    book: Book,
    /// Registered per-buffer bounds (append-only: never cleared on free).
    regions: Vec<(u64, u64)>,
}

impl GpuShieldDefense {
    /// Fresh instance.
    pub fn new() -> GpuShieldDefense {
        GpuShieldDefense {
            global: PackedArena::new(layout::GLOBAL_BASE, 1 << 30, 256),
            heap: PackedArena::new(layout::HEAP_BASE, 1 << 30, 16),
            stack: PackedArena::new(layout::LOCAL_BASE, 1 << 20, 8),
            shared: PackedArena::new(layout::SHARED_BASE, 192 * 1024, 8),
            book: Book::default(),
            regions: Vec::new(),
        }
    }

    fn check(&self, raw: u64, owner: usize) -> Outcome {
        let addr = raw;
        match self.book.allocs[owner].region {
            Region::Global => {
                // Pointer tag identifies the buffer; the access is checked
                // against that buffer's registered bounds.
                let (base, size) = self.regions[self.region_index(owner)];
                if addr >= base && addr < base + size {
                    Outcome::Allowed
                } else {
                    Outcome::Faulted
                }
            }
            Region::Heap => {
                // One coarse region for the whole device heap (§IV-D).
                if (layout::HEAP_BASE..layout::HEAP_BASE + (1 << 30)).contains(&addr) {
                    Outcome::Allowed
                } else {
                    Outcome::Faulted
                }
            }
            Region::Local => {
                if (layout::LOCAL_BASE..layout::LOCAL_BASE + (1 << 20)).contains(&addr) {
                    Outcome::Allowed
                } else {
                    Outcome::Faulted
                }
            }
            // Shared memory is unprotected.
            Region::SharedStatic | Region::SharedDynamic => Outcome::Allowed,
        }
    }

    fn region_index(&self, owner: usize) -> usize {
        self.book.allocs.iter().take(owner).filter(|a| a.region == Region::Global).count()
    }
}

impl Default for GpuShieldDefense {
    fn default() -> Self {
        Self::new()
    }
}

impl Defense for GpuShieldDefense {
    fn name(&self) -> &'static str {
        "GPUShield"
    }

    fn alloc(&mut self, region: Region, size: u64) -> Handle {
        let base = match region {
            Region::Global => {
                let b = self.global.alloc(size);
                self.regions.push((b, size));
                b
            }
            Region::Heap => self.heap.alloc(size),
            Region::Local => self.stack.alloc(size),
            Region::SharedStatic | Region::SharedDynamic => self.shared.alloc(size),
        };
        let h = self.book.add_alloc(region, base, size);
        self.book.add_ptr(base, h.0);
        h
    }

    fn addr_of(&self, h: Handle) -> u64 {
        self.book.allocs[h.0].base
    }

    fn ptr_to(&mut self, h: Handle) -> Ptr {
        let idx = self
            .book
            .ptrs
            .iter()
            .position(|&(_, owner)| owner == h.0)
            .expect("allocation created a pointer");
        Ptr(idx)
    }

    fn derive(&mut self, p: Ptr, delta: i64) -> Ptr {
        let (raw, owner) = self.book.ptrs[p.0];
        self.book.add_ptr(raw.wrapping_add(delta as u64), owner)
    }

    fn write(&mut self, p: Ptr, _width: u8) -> Outcome {
        let (raw, owner) = self.book.ptrs[p.0];
        self.check(raw, owner)
    }

    fn read(&mut self, p: Ptr, _width: u8) -> Outcome {
        let (raw, owner) = self.book.ptrs[p.0];
        self.check(raw, owner)
    }

    fn free(&mut self, p: Ptr) -> bool {
        match self.book.runtime_free(p) {
            Some(owner) => {
                let a = self.book.allocs[owner];
                match a.region {
                    Region::Global => self.global.release(a.base, a.size),
                    Region::Heap => self.heap.release(a.base, a.size),
                    _ => {}
                }
                false
            }
            None => true,
        }
    }

    fn begin_frame(&mut self) {
        self.book.begin_frame();
    }

    fn end_frame(&mut self) {
        let frame = self.book.pop_frame();
        for a in &mut self.book.allocs {
            if a.region == Region::Local && a.frame == frame {
                a.live = false;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// cuCatch
// ---------------------------------------------------------------------------

/// cuCatch: shadow tags over the *unchanged* packed layout. Heap is
/// uncovered; stack objects are individually tagged but granule-limited.
pub struct CuCatchDefense {
    global: PackedArena,
    heap: PackedArena,
    stack: PackedArena,
    shared: PackedArena,
    tags: CuCatch,
    /// handle -> pointer tag
    handle_tags: Vec<Tag>,
    /// per-pointer tag (copies inherit provenance).
    ptr_tags: Vec<Tag>,
    pool_tag: Option<Tag>,
    pool: Option<(u64, u64)>,
    book: Book,
}

impl CuCatchDefense {
    /// Fresh instance.
    pub fn new() -> CuCatchDefense {
        CuCatchDefense {
            global: PackedArena::new(layout::GLOBAL_BASE, 1 << 30, 256),
            heap: PackedArena::new(layout::HEAP_BASE, 1 << 30, 16),
            // Stack objects pack at 4-byte alignment: sub-granule adjacency
            // is real here (the source of the two missed local cases).
            stack: PackedArena::new(layout::LOCAL_BASE, 1 << 20, 4),
            shared: PackedArena::new(layout::SHARED_BASE, 192 * 1024, 4),
            tags: CuCatch::new(),
            handle_tags: Vec::new(),
            ptr_tags: Vec::new(),
            pool_tag: None,
            pool: None,
            book: Book::default(),
        }
    }
}

impl Default for CuCatchDefense {
    fn default() -> Self {
        Self::new()
    }
}

impl Defense for CuCatchDefense {
    fn name(&self) -> &'static str {
        "cuCatch"
    }

    fn alloc(&mut self, region: Region, size: u64) -> Handle {
        let (base, tag) = match region {
            Region::Global => {
                let b = self.global.alloc(size);
                (b, self.tags.tag_buffer(b, size))
            }
            Region::Heap => (self.heap.alloc(size), self.tags.untagged()),
            Region::Local => {
                let b = self.stack.alloc(size);
                (b, self.tags.tag_buffer(b, size))
            }
            Region::SharedStatic => {
                let b = self.shared.alloc(size);
                (b, self.tags.tag_buffer(b, size))
            }
            Region::SharedDynamic => {
                // The dynamic pool carries a single tag.
                if self.pool.is_none() {
                    let pool_size = 64 * 1024;
                    let b = self.shared.alloc(pool_size);
                    self.pool = Some((b, b));
                    self.pool_tag = Some(self.tags.tag_dynamic_shared_pool(b, pool_size));
                }
                let (_, cursor) = self.pool.as_mut().unwrap();
                let b = *cursor;
                *cursor += size.next_multiple_of(8);
                (b, self.pool_tag.unwrap())
            }
        };
        let h = self.book.add_alloc(region, base, size);
        self.handle_tags.push(tag);
        self.book.add_ptr(base, h.0);
        self.ptr_tags.push(tag);
        h
    }

    fn addr_of(&self, h: Handle) -> u64 {
        self.book.allocs[h.0].base
    }

    fn ptr_to(&mut self, h: Handle) -> Ptr {
        let idx = self
            .book
            .ptrs
            .iter()
            .position(|&(_, owner)| owner == h.0)
            .expect("allocation created a pointer");
        Ptr(idx)
    }

    fn derive(&mut self, p: Ptr, delta: i64) -> Ptr {
        let (raw, owner) = self.book.ptrs[p.0];
        let tag = self.ptr_tags[p.0];
        let out = self.book.add_ptr(raw.wrapping_add(delta as u64), owner);
        self.ptr_tags.push(tag);
        out
    }

    fn write(&mut self, p: Ptr, _width: u8) -> Outcome {
        let (raw, _) = self.book.ptrs[p.0];
        if self.tags.check(self.ptr_tags[p.0], raw).is_err() {
            Outcome::Faulted
        } else {
            Outcome::Allowed
        }
    }

    fn read(&mut self, p: Ptr, width: u8) -> Outcome {
        self.write(p, width)
    }

    fn free(&mut self, p: Ptr) -> bool {
        match self.book.runtime_free(p) {
            Some(owner) => {
                let a = self.book.allocs[owner];
                self.tags.free(a.base);
                match a.region {
                    Region::Global => self.global.release(a.base, a.size),
                    Region::Heap => self.heap.release(a.base, a.size),
                    _ => {}
                }
                false
            }
            None => true,
        }
    }

    fn begin_frame(&mut self) {
        self.book.begin_frame();
    }

    fn end_frame(&mut self) {
        let frame = self.book.pop_frame();
        let dead: Vec<(u64, u64)> = self
            .book
            .allocs
            .iter_mut()
            .filter(|a| a.region == Region::Local && a.frame == frame && a.live)
            .map(|a| {
                a.live = false;
                (a.base, a.size)
            })
            .collect();
        for (base, size) in dead {
            self.tags.free(base);
            self.stack.release(base, size);
        }
    }
}

// ---------------------------------------------------------------------------
// GMOD
// ---------------------------------------------------------------------------

/// GMOD: canaries around global buffers, scanned at synchronization points;
/// writes really land in a functional memory so canary damage is physical.
pub struct GmodDefense {
    global: PackedArena,
    heap: PackedArena,
    stack: PackedArena,
    shared: PackedArena,
    memory: SparseMemory,
    canary: CanaryAllocator,
    book: Book,
}

impl GmodDefense {
    /// Fresh instance.
    pub fn new() -> GmodDefense {
        GmodDefense {
            // Leave canary headroom via a 512-byte packing pitch.
            global: PackedArena::new(layout::GLOBAL_BASE + 256, 1 << 30, 256),
            heap: PackedArena::new(layout::HEAP_BASE, 1 << 30, 16),
            stack: PackedArena::new(layout::LOCAL_BASE, 1 << 20, 8),
            shared: PackedArena::new(layout::SHARED_BASE, 192 * 1024, 8),
            memory: SparseMemory::new(),
            canary: CanaryAllocator::new(),
            book: Book::default(),
        }
    }
}

impl Default for GmodDefense {
    fn default() -> Self {
        Self::new()
    }
}

impl Defense for GmodDefense {
    fn name(&self) -> &'static str {
        "GMOD"
    }

    fn alloc(&mut self, region: Region, size: u64) -> Handle {
        let base = match region {
            Region::Global => {
                // Reserve canary space on both sides.
                let b = self.global.alloc(size + 2 * lmi_baselines::canary::CANARY_BYTES)
                    + lmi_baselines::canary::CANARY_BYTES;
                self.canary.guard(&mut self.memory, b, size);
                b
            }
            Region::Heap => self.heap.alloc(size),
            Region::Local => self.stack.alloc(size),
            Region::SharedStatic | Region::SharedDynamic => self.shared.alloc(size),
        };
        let h = self.book.add_alloc(region, base, size);
        self.book.add_ptr(base, h.0);
        h
    }

    fn addr_of(&self, h: Handle) -> u64 {
        self.book.allocs[h.0].base
    }

    fn ptr_to(&mut self, h: Handle) -> Ptr {
        let idx = self
            .book
            .ptrs
            .iter()
            .position(|&(_, owner)| owner == h.0)
            .expect("allocation created a pointer");
        Ptr(idx)
    }

    fn derive(&mut self, p: Ptr, delta: i64) -> Ptr {
        let (raw, owner) = self.book.ptrs[p.0];
        self.book.add_ptr(raw.wrapping_add(delta as u64), owner)
    }

    fn write(&mut self, p: Ptr, width: u8) -> Outcome {
        // No inline check — but the write physically lands, so canaries
        // record the damage for the next scan.
        let (raw, _) = self.book.ptrs[p.0];
        self.memory.write(raw, 0, width.min(8));
        Outcome::Allowed
    }

    fn read(&mut self, _p: Ptr, _width: u8) -> Outcome {
        Outcome::Allowed
    }

    fn free(&mut self, p: Ptr) -> bool {
        self.book.runtime_free(p).is_none()
    }

    fn begin_frame(&mut self) {
        self.book.begin_frame();
    }

    fn end_frame(&mut self) {
        let frame = self.book.pop_frame();
        for a in &mut self.book.allocs {
            if a.region == Region::Local && a.frame == frame {
                a.live = false;
            }
        }
    }

    fn sync_scan(&mut self) -> bool {
        !self.canary.scan(&self.memory).is_empty()
    }
}
