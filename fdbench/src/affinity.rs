//! Pinning threads to one CPU while they are measured.
//!
//! On the sizing host a lone busy thread that the guest scheduler moves
//! between the two vCPUs loses its private L2 and runs up to 1.5x slower
//! for seconds at a time; pinned, the same repeats stay within 2 %. The
//! serve plane, left to the scheduler, settles into one of several regimes
//! (see `workload::on_serving_core`). The standard library has no affinity
//! call and the benchmark may depend on nothing outside the repository, so
//! this is the one place that talks to the kernel directly. Anywhere but
//! x86-64 Linux it does nothing.

/// The calling thread's affinity mask, as the kernel keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask([u64; Mask::WORDS]);

impl Mask {
    const WORDS: usize = 16; // 1 024 CPUs

    fn only(cpu: usize) -> Mask {
        let mut words = [0u64; Mask::WORDS];
        words[cpu / 64] = 1 << (cpu % 64);
        Mask(words)
    }

    /// The `slot`-th CPU of the mask, counting from the lowest and
    /// wrapping around, so that slots 0 and 1 are two different CPUs
    /// wherever the thread is allowed on two.
    fn nth_cpu(&self, slot: usize) -> Option<usize> {
        let cpus: Vec<usize> = (0..Mask::WORDS * 64)
            .filter(|cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect();
        (!cpus.is_empty()).then(|| cpus[slot % cpus.len()])
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::Mask;

    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;

    /// `syscall(number, 0 /* this thread */, size_of mask, mask)`.
    ///
    /// # Safety
    ///
    /// `mask` must point to `Mask::WORDS * 8` bytes that stay valid for
    /// the call and, for `SCHED_GETAFFINITY`, are writable.
    unsafe fn affinity_call(number: isize, mask: *mut u64) -> isize {
        let ret: isize;
        // SAFETY: the x86-64 Linux syscall convention — number in rax,
        // arguments in rdi, rsi, rdx; the kernel clobbers rcx and r11 and
        // returns in rax. Both calls touch only the `mask` buffer, whose
        // validity the caller guarantees, and no stack.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") number => ret,
                in("rdi") 0usize,
                in("rsi") Mask::WORDS * 8,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn get() -> Option<Mask> {
        let mut mask = Mask([0; Mask::WORDS]);
        // SAFETY: `mask.0` is a live, writable array of `Mask::WORDS` words.
        let ret = unsafe { affinity_call(SCHED_GETAFFINITY, mask.0.as_mut_ptr()) };
        (ret > 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        let mut copy = *mask;
        // SAFETY: `copy.0` is a live array of `Mask::WORDS` words; the
        // kernel only reads it.
        unsafe { affinity_call(SCHED_SETAFFINITY, copy.0.as_mut_ptr()) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}

/// Runs `f` with the calling thread pinned to the `slot`-th CPU it is
/// allowed on, and gives the thread its previous mask back afterwards.
/// Where pinning is unavailable `f` simply runs. Threads spawned inside
/// `f` inherit the pin.
pub fn on_cpu<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    let previous = sys::get();
    let pinned = previous
        .and_then(|mask| mask.nth_cpu(slot))
        .is_some_and(|cpu| sys::set(&Mask::only(cpu)));
    let out = f();
    if let (true, Some(previous)) = (pinned, previous) {
        sys::set(&previous);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_wrap_around_the_allowed_cpus() {
        let mut two = Mask::only(3);
        two.0[1] |= 1 << 6; // CPU 70
        assert_eq!(two.nth_cpu(0), Some(3));
        assert_eq!(two.nth_cpu(1), Some(70));
        assert_eq!(two.nth_cpu(2), Some(3));
        assert_eq!(Mask::only(5).nth_cpu(1), Some(5));
        assert_eq!(Mask([0; Mask::WORDS]).nth_cpu(0), None);
    }

    #[test]
    fn pinning_is_undone_afterwards_and_inherited_by_spawned_threads() {
        let before = sys::get();
        let (inside, child) = on_cpu(1, || {
            let child = std::thread::spawn(sys::get).join().expect("child thread");
            (sys::get(), child)
        });
        assert_eq!(sys::get(), before, "the previous mask is restored");
        if let (Some(before), Some(inside)) = (before, inside) {
            let cpu = before.nth_cpu(1).expect("a thread runs somewhere");
            assert_eq!(inside, Mask::only(cpu));
            assert_eq!(child, Some(inside));
        }
    }
}
