//! The native data-path routines against the interpreter, their oracle.
//!
//! Every call through [`Cpu::call`] must leave exactly the state that
//! interpreting the routine leaves: the same `RunResult` (outcome and
//! steps), all 32 registers, every memory byte, every `AccessStats` field
//! and the same trace events. A native attempt that declines must leave
//! everything untouched, and a routine whose text differs from its
//! installed encoding in any bit must never run natively.

use rio_cpu::{kseg_addr, Call, Cpu, KernelRoutines, Reg, RoutineStore, RunResult};
use rio_det::proptest_lite::{check, Config, Gen};
use rio_det::pt_assert_eq;
use rio_mem::{MemBus, MemConfig, PageNum, ProtectionMode, PAGE_SIZE};

const PAGE: u64 = PAGE_SIZE as u64;

fn machine() -> (MemBus, RoutineStore, KernelRoutines) {
    let mut bus = MemBus::new(MemConfig::small());
    let mut store = RoutineStore::new(bus.layout().text);
    let routines = KernelRoutines::install_all(&mut bus, &mut store).unwrap();
    // A second, never-called copy: text beyond the live routines.
    KernelRoutines::install_all(&mut bus, &mut store).unwrap();
    (bus, store, routines)
}

/// Runs `f` inside a trace session and returns its result and events.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<rio_obs::Event>) {
    rio_obs::start(64);
    let out = f();
    let events = rio_obs::finish().map(|t| t.events).unwrap_or_default();
    (out, events)
}

fn first_differing_page(a: &MemBus, b: &MemBus) -> Option<u64> {
    let pages = a.mem().len() / PAGE;
    (0..pages).find(|&pn| a.mem().page(PageNum(pn)) != b.mem().page(PageNum(pn)))
}

/// Writes `len` random bytes at `addr`, clipped to memory; kernel text
/// (which starts at address 0) is left as installed.
fn scribble(g: &mut Gen, bus: &mut MemBus, addr: u64, len: u64) {
    let end = (addr.saturating_add(len)).min(bus.mem().len());
    if addr >= end || addr < bus.layout().text.end {
        return;
    }
    let mut bytes = vec![0u8; (end - addr) as usize];
    g.rng().fill_bytes(&mut bytes);
    bus.mem_mut().write_bytes(addr, &bytes);
}

/// A length in `0..=3 pages`, biased toward the sizes where the routines
/// change loops.
fn length(g: &mut Gen) -> u64 {
    match g.in_range(0..4u32) {
        0 => g.in_range(0..=20u64),
        1 => g.in_range(0..=200u64),
        2 => (g.in_range(0..=3u64) * PAGE).saturating_sub(g.in_range(0..=9u64)),
        _ => g.in_range(0..=3 * PAGE),
    }
}

/// Where an operand goes: usually a data region at any alignment and often
/// straddling a page boundary; sometimes out of bounds or in kernel text.
fn place(g: &mut Gen, bus: &MemBus, len: u64) -> u64 {
    let layout = *bus.layout();
    let mem_len = bus.mem().len();
    match g.in_range(0..12u32) {
        0 => mem_len.saturating_sub(len) + g.in_range(0..=16u64), // runs off the end
        1 => layout.text.start + g.in_range(0..layout.text.len()), // kernel text
        2 => 0xDEAD_0000_0000 + g.in_range(0..8u64),              // wild
        3 => layout.text.end - g.in_range(1..=64u64),             // ends in text
        4 | 5 => layout.text.start + g.in_range(0..1024u64),      // live code
        _ => {
            let region = if g.bool() { layout.ubc } else { layout.heap };
            let page = region.start / PAGE + g.in_range(0..region.pages() - 4);
            let off = if g.bool() {
                PAGE - g.in_range(1..=80u64) // near the page end
            } else {
                g.in_range(0..PAGE)
            };
            page * PAGE + off
        }
    }
}

fn route(g: &mut Gen, addr: u64) -> u64 {
    if g.bool() {
        kseg_addr(addr)
    } else {
        addr
    }
}

fn protection(g: &mut Gen, bus: &mut MemBus, near: &[u64]) {
    let (mode, kseg) = match g.in_range(0..4u32) {
        0 => (ProtectionMode::Off, false),
        1 => (ProtectionMode::Hardware, false),
        2 => (ProtectionMode::Hardware, true),
        _ => (ProtectionMode::CodePatching, false),
    };
    bus.protection_mut().set_mode(mode);
    bus.protection_mut().set_kseg_through_tlb(kseg);
    // Random protected pages of the machine, mostly among the ones the
    // call touches.
    let pages = bus.mem().len() / PAGE;
    let prot = bus.protection_mut();
    for &addr in near {
        let first = PageNum::containing(addr & !rio_cpu::KSEG_BIT).0.min(pages);
        for pn in first.saturating_sub(1)..(first + 5).min(pages) {
            if g.in_range(0..4u32) == 0 {
                prot.protect(PageNum(pn));
            }
        }
    }
    for _ in 0..g.in_range(0..4u32) {
        prot.protect(PageNum(g.in_range(0..pages)));
    }
}

/// A random call with random operands, registers and protection.
fn scenario(g: &mut Gen) -> (MemBus, RoutineStore, KernelRoutines, Cpu, Call) {
    let (mut bus, store, routines) = machine();
    let mut cpu = Cpu::new();
    for r in 1..32 {
        cpu.set_reg(Reg(r), g.u64());
    }
    let len = length(g);
    let a = place(g, &bus, len);
    let b = match g.in_range(0..6u32) {
        // Overlapping operands, in either direction.
        0 => a
            .wrapping_add(g.in_range(0..=2 * len.max(1)))
            .wrapping_sub(len.max(1)),
        _ => place(g, &bus, len),
    };
    scribble(g, &mut bus, a, len + 8);
    match g.in_range(0..3u32) {
        // `bcmp` operands equal, or equal up to one flipped bit.
        0 if bus.mem().in_bounds(a, len) && bus.mem().in_bounds(b, len) && a.abs_diff(b) >= len => {
            let bytes = bus.mem().to_vec(a, len);
            bus.mem_mut().write_bytes(b, &bytes);
            if len > 0 && g.bool() {
                bus.mem_mut()
                    .flip_bit(b + g.in_range(0..len), g.in_range(0..8u8));
            }
        }
        _ => scribble(g, &mut bus, b, len + 8),
    }
    let (a, b) = (route(g, a), route(g, b));
    protection(g, &mut bus, &[a, b]);
    let call = match g.in_range(0..3u32) {
        0 => Call::Bcopy {
            src: a,
            dst: b,
            len,
        },
        1 => Call::Bzero { dst: b, len },
        _ => Call::Bcmp { a, b, len },
    };
    (bus, store, routines, cpu, call)
}

fn interpret(
    cpu: &mut Cpu,
    bus: &mut MemBus,
    store: &RoutineStore,
    routines: &KernelRoutines,
    call: Call,
    limit: u64,
) -> RunResult {
    call.load_args(cpu);
    cpu.run(bus, store, routines.handle(call), limit)
}

#[test]
fn native_calls_match_the_interpreter_exactly() {
    let (mut native, mut declined) = (0u32, 0u32);
    check("native == interpreter", Config::with_cases(1000), |g| {
        let (bus, store, routines, cpu, call) = scenario(g);
        // Learn the full run's length, then pick a generous or a tight
        // limit (just below, at, or just above it).
        let full = interpret(
            &mut cpu.clone(),
            &mut bus.clone(),
            &store,
            &routines,
            call,
            1 << 20,
        );
        let limit = match g.in_range(0..5u32) {
            0 => full.steps.saturating_sub(1),
            1 => full.steps,
            2 => full.steps + 1,
            3 => g.in_range(0..=full.steps),
            _ => 1 << 20,
        };

        let (mut cpu_i, mut bus_i) = (cpu.clone(), bus.clone());
        let (run_i, ev_i) =
            traced(|| interpret(&mut cpu_i, &mut bus_i, &store, &routines, call, limit));
        let (mut cpu_c, mut bus_c) = (cpu.clone(), bus.clone());
        let (run_c, ev_c) = traced(|| cpu_c.call(&mut bus_c, &store, &routines, call, limit));
        pt_assert_eq!(run_c, run_i);
        pt_assert_eq!(cpu_c, cpu_i);
        pt_assert_eq!(bus_c.stats(), bus_i.stats());
        pt_assert_eq!(first_differing_page(&bus_c, &bus_i), None);
        pt_assert_eq!(ev_c, ev_i);

        // Whether the native path took the call; a decline touches nothing.
        let (mut cpu_n, mut bus_n) = (cpu.clone(), bus.clone());
        call.load_args(&mut cpu_n);
        let loaded = cpu_n.clone();
        match routines.run_native(&mut cpu_n, &mut bus_n, &store, call, limit) {
            Some(run) => {
                native += 1;
                pt_assert_eq!(run, run_i);
            }
            None => {
                declined += 1;
                pt_assert_eq!(cpu_n, loaded);
                pt_assert_eq!(bus_n.stats(), bus.stats());
                pt_assert_eq!(first_differing_page(&bus_n, &bus), None);
            }
        }
        Ok(())
    });
    // Both paths must be exercised for the comparison to mean anything.
    assert!(
        native >= 200 && declined >= 200,
        "native {native}, declined {declined}"
    );
}

#[test]
fn every_single_bit_flip_of_live_text_declines_native() {
    let (bus, store, routines) = machine();
    let heap = bus.layout().heap.start;
    let calls = [
        Call::Bcopy {
            src: heap,
            dst: heap + 3 * PAGE,
            len: 100,
        },
        Call::Bzero {
            dst: heap,
            len: 100,
        },
        Call::Bcmp {
            a: heap,
            b: heap + PAGE,
            len: 100,
        },
    ];
    for call in calls {
        let h = routines.handle(call);
        let base = store.instr_addr(h.first_index);
        let mut cpu = Cpu::new();
        call.load_args(&mut cpu);
        let pristine =
            routines.run_native(&mut cpu.clone(), &mut bus.clone(), &store, call, 1 << 20);
        assert!(
            pristine.is_some(),
            "{call:?} runs natively on pristine text"
        );
        for byte in 0..h.len * rio_cpu::INSTR_BYTES {
            for bit in 0..8 {
                let mut faulty = bus.clone();
                faulty.mem_mut().flip_bit(base + byte, bit);
                assert!(!store.is_pristine(faulty.mem(), h));
                let run = routines.run_native(&mut cpu.clone(), &mut faulty, &store, call, 1 << 20);
                assert!(
                    run.is_none(),
                    "{call:?}: flip of byte {byte} bit {bit} ran natively"
                );
            }
        }
        // A flip in text outside the routine leaves it pristine.
        let mut elsewhere = bus.clone();
        elsewhere
            .mem_mut()
            .flip_bit(base + h.len * rio_cpu::INSTR_BYTES, 0);
        assert!(store.is_pristine(elsewhere.mem(), h));
    }
}
