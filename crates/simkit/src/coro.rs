//! Stackful coroutines: the stacks simulated processes run on, and the
//! register switch between a process and the scheduler loop.
//!
//! This is simkit's one module with `unsafe` code. Everything it hands
//! out is safe to use: [`Coroutine::resume`] runs a body until it calls
//! [`suspend`] or returns, and `suspend` checks that it is called from
//! the coroutine its [`Switch`] is running.
//!
//! * **Stacks** are 512 KiB `mmap` regions with a `PROT_NONE` guard page
//!   below them, so an overflow faults instead of corrupting a neighbour.
//!   A finished process's stack goes to a free list of the host thread
//!   that ran it ([`Stack::take`], [`Stack::recycle`]). The list outlives
//!   any one `Simulation`, so repeated runs on a thread map, fault and
//!   unmap no stack after the first; it is unmapped when the thread
//!   exits.
//! * **The switch** pushes the callee-saved registers on the current
//!   stack, stores the stack pointer, loads the other one and pops. A
//!   switch is a function call to the compiler, so every other register
//!   is already saved by the caller. The floating-point control words are
//!   not switched: no process may change the rounding mode.
//! * **The entry trampoline** marks its return address undefined in the
//!   unwind tables, so a backtrace taken inside a process stops at the
//!   bottom of the coroutine's stack.

use std::cell::RefCell;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "simkit's coroutine switch (crates/simkit/src/coro.rs) has no port for this \
     target; it exists for x86_64 and aarch64 Linux"
);

/// Usable bytes of one process stack (the guard page is extra).
const STACK_SIZE: usize = 512 * 1024;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    /// Save the callee-saved registers, store the stack pointer to
    /// `*save`, switch to the stack `to` and pop its registers.
    fn simkit_coro_switch(save: *mut usize, to: usize);
    /// First return address of a new coroutine: calls `coro_entry`.
    fn simkit_coro_start();
}

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".pushsection .text.simkit_coro,\"ax\",@progbits",
    ".p2align 4",
    ".global simkit_coro_switch",
    ".hidden simkit_coro_switch",
    ".type simkit_coro_switch,@function",
    "simkit_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size simkit_coro_switch, .-simkit_coro_switch",
    // A new stack's first `ret` lands here with r12 = the start record
    // and r13 = `coro_entry`, which never returns.
    ".p2align 4",
    ".global simkit_coro_start",
    ".hidden simkit_coro_start",
    ".type simkit_coro_start,@function",
    "simkit_coro_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size simkit_coro_start, .-simkit_coro_start",
    ".popsection",
);

/// Registers the x86_64 switch pops: r15, r14, r13, r12, rbx, rbp, then
/// the return address.
#[cfg(target_arch = "x86_64")]
fn initial_frame(start: usize, entry: usize) -> [usize; 7] {
    [
        0,
        0,
        entry,
        start,
        0,
        0,
        simkit_coro_start as *const () as usize,
    ]
}

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    ".pushsection .text.simkit_coro,\"ax\",@progbits",
    ".p2align 4",
    ".global simkit_coro_switch",
    ".hidden simkit_coro_switch",
    ".type simkit_coro_switch,@function",
    "simkit_coro_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov sp, x1",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    ".size simkit_coro_switch, .-simkit_coro_switch",
    // A new stack's first `ret` lands here with x19 = the start record
    // and x20 = `coro_entry`, which never returns.
    ".p2align 4",
    ".global simkit_coro_start",
    ".hidden simkit_coro_start",
    ".type simkit_coro_start,@function",
    "simkit_coro_start:",
    ".cfi_startproc",
    ".cfi_undefined x30",
    "mov x0, x19",
    "blr x20",
    "brk #1",
    ".cfi_endproc",
    ".size simkit_coro_start, .-simkit_coro_start",
    ".popsection",
);

/// The 160-byte block the aarch64 switch pops: x19..x28, x29 (frame
/// pointer, 0 ends the chain), x30 (return address), d8..d15.
#[cfg(target_arch = "aarch64")]
fn initial_frame(start: usize, entry: usize) -> [usize; 20] {
    let mut f = [0; 20];
    f[0] = start;
    f[1] = entry;
    f[11] = simkit_coro_start as *const () as usize;
    f
}

fn page_size() -> usize {
    // SAFETY: sysconf has no preconditions.
    let page = unsafe { sysconf(SC_PAGESIZE) };
    usize::try_from(page).expect("sysconf(_SC_PAGESIZE) failed")
}

thread_local! {
    /// Stacks of finished processes on this host thread, for the next
    /// first dispatch of any `Simulation` driven here.
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Stacks this host thread has mapped.
    pub(crate) static MAPPED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Unmap every stack on this thread's free list.
#[cfg(test)]
pub(crate) fn clear_free_list() {
    FREE.with_borrow_mut(Vec::clear);
}

/// One process stack: an anonymous mapping whose lowest page is a guard.
pub(crate) struct Stack {
    base: *mut c_void,
    len: usize,
    guard: usize,
}

impl Stack {
    /// A stack from this thread's free list, or a fresh mapping.
    pub(crate) fn take() -> Stack {
        FREE.with_borrow_mut(Vec::pop).unwrap_or_else(Stack::new)
    }

    /// Put a stack no coroutine runs on back on this thread's free list
    /// (unmapped instead while the thread exits).
    pub(crate) fn recycle(self) {
        let _ = FREE.try_with(|f| f.borrow_mut().push(self));
    }

    fn new() -> Stack {
        #[cfg(test)]
        MAPPED.with(|m| m.set(m.get() + 1));
        let guard = page_size();
        let len = STACK_SIZE + guard;
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {len}-byte process stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping just created.
        let rc = unsafe { mprotect(base, guard, PROT_NONE) };
        assert_eq!(rc, 0, "guard page: {}", std::io::Error::last_os_error());
        Stack { base, len, guard }
    }

    /// Lowest usable address (just above the guard page).
    fn lo(&self) -> usize {
        self.base as usize + self.guard
    }

    /// One past the highest address; page-aligned, so 16-byte aligned.
    fn hi(&self) -> usize {
        self.base as usize + self.len
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `new`; no coroutine runs on it (a
        // suspended coroutine's stack is leaked, never dropped).
        unsafe { munmap(self.base, self.len) };
    }
}

/// The switch point between one scheduler loop and the coroutines it
/// resumes, one at a time.
///
/// Only the thread that drives the simulation reads or writes these
/// fields, so `Relaxed` suffices; they are atomics only so the kernel
/// that holds them stays `Sync` for handles on other threads.
pub(crate) struct Switch {
    /// The scheduler's stack pointer while a coroutine runs.
    sched: AtomicUsize,
    /// The stack pointer a suspending coroutine saved; 0 once it returned.
    saved: AtomicUsize,
    /// Bounds of the running coroutine's stack; `lo == 0` when none runs.
    lo: AtomicUsize,
    hi: AtomicUsize,
}

impl Switch {
    pub(crate) fn new() -> Switch {
        Switch {
            sched: AtomicUsize::new(0),
            saved: AtomicUsize::new(0),
            lo: AtomicUsize::new(0),
            hi: AtomicUsize::new(0),
        }
    }
}

/// Switch from the running coroutine back to the scheduler loop that
/// resumed it; returns when the scheduler resumes it again.
///
/// Panics unless called on the stack of the coroutine `switch` is
/// running.
pub(crate) fn suspend(switch: &Switch) {
    let marker = 0u8;
    let here = &marker as *const u8 as usize;
    assert!(
        switch.lo.load(Relaxed) <= here && here < switch.hi.load(Relaxed),
        "suspend called outside the process this switch is running"
    );
    let to = switch.sched.load(Relaxed);
    // SAFETY: `to` is the scheduler's stack pointer saved by the
    // `resume` that is running this coroutine (checked above); its frame
    // is live until this coroutine switches back.
    unsafe { simkit_coro_switch(switch.saved.as_ptr(), to) };
}

/// What a new stack's first frame receives.
struct Start {
    body: Box<dyn FnOnce()>,
    switch: *const Switch,
}

/// The body of a new stack, reached from `simkit_coro_start`.
///
/// # Safety
///
/// `start` must come from `Box::into_raw` in [`Coroutine::new`] and be
/// passed here once, by the first `resume`, which keeps the switch alive.
unsafe extern "C" fn coro_entry(start: *mut Start) -> ! {
    let switch = {
        // SAFETY: `Coroutine::new` leaked this box for us alone.
        let Start { body, switch } = *unsafe { Box::from_raw(start) };
        if catch_unwind(AssertUnwindSafe(body)).is_err() {
            // An unwind must not leave the stack it started on.
            std::process::abort();
        }
        switch
    };
    // Every local with a destructor is gone: this frame is abandoned.
    // SAFETY: the `Coroutine` resuming us holds an `Arc` of the switch.
    // `resume` cleared `saved`, which tells it this coroutine returned.
    let switch = unsafe { &*switch };
    let mut dead = 0;
    // SAFETY: as in `suspend`; nothing resumes this stack again.
    unsafe { simkit_coro_switch(&mut dead, switch.sched.load(Relaxed)) };
    std::process::abort()
}

enum State {
    /// Not run yet: the start record still owns the body.
    New(*mut Start),
    /// Suspended at this stack pointer.
    Suspended(usize),
    Done,
}

/// A body running on its own stack, resumed by the scheduler loop.
pub(crate) struct Coroutine {
    stack: Option<Stack>,
    state: State,
    switch: Arc<Switch>,
}

impl Coroutine {
    /// Prepare `body` to run on `stack`; nothing runs until `resume`.
    pub(crate) fn new(stack: Stack, switch: &Arc<Switch>, body: Box<dyn FnOnce()>) -> Coroutine {
        let start = Box::into_raw(Box::new(Start {
            body,
            switch: Arc::as_ptr(switch),
        }));
        Coroutine {
            stack: Some(stack),
            state: State::New(start),
            switch: Arc::clone(switch),
        }
    }

    /// Run until the body suspends (false) or returns (true).
    pub(crate) fn resume(&mut self) -> bool {
        let stack = self.stack.as_ref().expect("coroutine without a stack");
        let to = match self.state {
            State::New(start) => {
                let frame = initial_frame(start as usize, coro_entry as *const () as usize);
                let sp = stack.hi() - std::mem::size_of_val(&frame);
                // SAFETY: the frame fits at the top of the fresh stack.
                // Once it is popped, sp is back at the page-aligned top:
                // 16-byte aligned, as the trampoline's call needs.
                unsafe { std::ptr::write(sp as *mut _, frame) };
                sp
            }
            State::Suspended(sp) => sp,
            State::Done => panic!("resumed a finished coroutine"),
        };
        let sw = &*self.switch;
        assert_eq!(
            sw.lo.load(Relaxed),
            0,
            "a scheduler resumed a process while another one runs"
        );
        sw.lo.store(stack.lo(), Relaxed);
        sw.hi.store(stack.hi(), Relaxed);
        sw.saved.store(0, Relaxed);
        // SAFETY: `to` is this coroutine's initial frame or the stack
        // pointer it saved when it suspended; the stack is owned here.
        unsafe { simkit_coro_switch(sw.sched.as_ptr(), to) };
        sw.lo.store(0, Relaxed);
        sw.hi.store(0, Relaxed);
        match sw.saved.load(Relaxed) {
            0 => {
                self.state = State::Done;
                true
            }
            sp => {
                self.state = State::Suspended(sp);
                false
            }
        }
    }

    /// The stack of a finished coroutine, for reuse.
    pub(crate) fn into_stack(mut self) -> Stack {
        assert!(matches!(self.state, State::Done), "stack still in use");
        self.stack.take().expect("stack taken twice")
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        match self.state {
            // SAFETY: never resumed, so the start record is still ours.
            State::New(start) => drop(unsafe { Box::from_raw(start) }),
            // Live frames on a suspended stack may be referenced from
            // elsewhere; leak the mapping rather than free under them.
            State::Suspended(_) => std::mem::forget(self.stack.take()),
            State::Done => {}
        }
    }
}
