//! The system-on-chip: CPU + bus + peripherals + statistics.
//!
//! [`Soc`] wires an RV32IM core to RAM, the PUF peripheral, the
//! accelerator window and a UART, runs firmware to completion and
//! reports gem5-style statistics including a simple energy model —
//! the "holistic approach to modeling and simulating a heterogeneous
//! system … including RISC-V CPUs and electronic or photonic
//! accelerators" of §V.

use crate::asm::{assemble, AsmError};
use crate::bus::{Bus, Ram};
use crate::peripherals::{AccelPeripheral, PufPeripheral, PufTelemetry, Uart};
use crate::riscv::{Cpu, Trap};
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::Registry;
use std::sync::Arc;
use std::sync::Mutex;

/// Canonical memory map of the reference SoC.
pub mod memory_map {
    /// RAM base.
    pub const RAM_BASE: u32 = 0x8000_0000;
    /// RAM size in bytes.
    pub const RAM_SIZE: usize = 256 * 1024;
    /// PUF peripheral base.
    pub const PUF_BASE: u32 = 0x1000_0000;
    /// Accelerator peripheral base.
    pub const ACCEL_BASE: u32 = 0x1000_1000;
    /// UART base.
    pub const UART_BASE: u32 = 0x1000_2000;
}

/// Why the simulation stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// Firmware executed the halt syscall (`ecall` with a7 = 0); the
    /// payload is a0.
    Halted(u32),
    /// The instruction budget ran out.
    BudgetExhausted,
    /// An unrecoverable trap.
    Trapped(Trap),
}

/// Energy coefficients of the simple power model (picojoules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Per retired CPU instruction.
    pub per_instruction_pj: f64,
    /// Per CPU cycle (static/clock tree).
    pub per_cycle_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            per_instruction_pj: 2.0,
            per_cycle_pj: 0.5,
        }
    }
}

/// The reference SoC.
pub struct Soc {
    cpu: Cpu,
    bus: Bus,
    stats: Registry,
    energy: EnergyModel,
    puf_telemetry: Arc<Mutex<PufTelemetry>>,
    uart_buffer: Arc<Mutex<Vec<u8>>>,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("pc", &self.cpu.pc)
            .field("instret", &self.cpu.instret)
            .finish()
    }
}

impl Soc {
    /// Builds the SoC around a photonic PUF and an (already loaded)
    /// accelerator engine.
    pub fn new(puf: PhotonicPuf, accel: Option<PhotonicEngine>) -> Self {
        let mut bus = Bus::new(Ram::new(memory_map::RAM_BASE, memory_map::RAM_SIZE));
        let (puf_dev, puf_telemetry) = PufPeripheral::new(puf);
        // invariant: memory_map constants are statically disjoint, so
        // these mappings cannot overlap.
        bus.map(memory_map::PUF_BASE, Box::new(puf_dev))
            .expect("static memory map");
        if let Some(engine) = accel {
            bus.map(
                memory_map::ACCEL_BASE,
                Box::new(AccelPeripheral::new(engine)),
            )
            .expect("static memory map");
        }
        let (uart, uart_buffer) = Uart::new();
        // invariant: UART_BASE is disjoint from every mapping above.
        bus.map(memory_map::UART_BASE, Box::new(uart))
            .expect("static memory map");
        Soc {
            cpu: Cpu::new(memory_map::RAM_BASE),
            bus,
            stats: Registry::new(),
            energy: EnergyModel::default(),
            puf_telemetry,
            uart_buffer,
        }
    }

    /// Assembles and loads firmware at the reset vector.
    ///
    /// # Errors
    ///
    /// Returns assembler errors with line context.
    pub fn load_firmware(&mut self, source: &str) -> Result<(), AsmError> {
        let code = assemble(source, memory_map::RAM_BASE)?;
        self.bus
            .load(memory_map::RAM_BASE, &code)
            .map_err(|e| AsmError {
                line: 0,
                message: format!("firmware does not fit in RAM: {e}"),
            })
    }

    /// Loads raw bytes at an address (data sections).
    ///
    /// # Errors
    ///
    /// [`crate::bus::BusFault::Unmapped`] when the range falls outside
    /// RAM.
    pub fn load_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), crate::bus::BusFault> {
        self.bus.load(addr, bytes)
    }

    /// The UART output so far.
    pub fn console(&self) -> Vec<u8> {
        // invariant: lock holders never panic while holding the buffer.
        self.uart_buffer
            .lock()
            .expect("uart buffer mutex poisoned")
            .clone()
    }

    /// CPU state (read-only view).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The statistics registry.
    pub fn stats(&self) -> &Registry {
        &self.stats
    }

    /// Runs until halt, trap or `max_instructions`.
    pub fn run(&mut self, max_instructions: u64) -> StopReason {
        let reason = loop {
            if self.cpu.instret >= max_instructions {
                break StopReason::BudgetExhausted;
            }
            let cycles_before = self.cpu.cycles;
            match self.cpu.step(&mut self.bus) {
                Ok(()) => {
                    self.bus.tick(self.cpu.cycles - cycles_before);
                }
                Err(Trap::Ecall) => {
                    let a7 = self.cpu.regs[17];
                    let a0 = self.cpu.regs[10];
                    match a7 {
                        0 => {
                            self.cpu.advance_past_trap();
                            break StopReason::Halted(a0);
                        }
                        1 => {
                            // invariant: lock holders never panic while
                            // holding the buffer.
                            self.uart_buffer
                                .lock()
                                .expect("uart buffer mutex poisoned")
                                .push(a0 as u8);
                            self.cpu.advance_past_trap();
                        }
                        _ => break StopReason::Trapped(Trap::Ecall),
                    }
                }
                Err(trap) => break StopReason::Trapped(trap),
            }
        };
        self.collect_stats();
        reason
    }

    fn collect_stats(&mut self) {
        let instret = self.cpu.instret as f64;
        let cycles = self.cpu.cycles as f64;
        self.stats
            .set("cpu.instructions", instret, "retired instructions");
        self.stats.set("cpu.cycles", cycles, "simulated cycles");
        self.stats.set(
            "cpu.ipc",
            if cycles > 0.0 { instret / cycles } else { 0.0 },
            "instructions per cycle",
        );
        // Bus transaction counters. `BusStats` is cumulative, so the
        // bus-side tally is reset after folding: each `run` contributes
        // its delta and the registry counters stay monotone even when
        // firmware is run in several bursts.
        let bus = self.bus.stats();
        self.stats.counter("bus.ram_reads", bus.ram_reads);
        self.stats.counter("bus.ram_writes", bus.ram_writes);
        self.stats.counter("bus.device_reads", bus.device_reads);
        self.stats.counter("bus.device_writes", bus.device_writes);
        self.stats.counter("bus.faults", bus.faults);
        self.bus.reset_stats();
        // invariant: telemetry lock holders never panic while holding
        // the lock.
        let t = self
            .puf_telemetry
            .lock()
            .expect("telemetry mutex poisoned")
            .clone();
        self.stats
            .set("puf.evaluations", t.evaluations as f64, "PUF evaluations");
        self.stats
            .set("puf.busy_cycles", t.busy_cycles as f64, "PUF busy cycles");
        self.stats
            .set("puf.energy_pj", t.energy_pj, "PUF energy (pJ)");
        let cpu_energy =
            instret * self.energy.per_instruction_pj + cycles * self.energy.per_cycle_pj;
        self.stats
            .set("cpu.energy_pj", cpu_energy, "CPU energy (pJ)");
        self.stats.set(
            "soc.energy_pj",
            cpu_energy + t.energy_pj,
            "total energy (pJ)",
        );
        // At the 1 GHz reference clock, cycles are nanoseconds.
        self.stats
            .set("soc.sim_time_ns", cycles, "simulated time (ns)");
    }
}

/// Firmware library used by tests, examples and benches.
pub mod firmware {
    /// Interrogates the PUF once: writes the challenge from a0/a1,
    /// starts, busy-waits, returns the response in a0/a1, halts with
    /// a0 = response word 0.
    pub const PUF_READ: &str = "
        li   t0, 0x10000000      # PUF base
        li   a0, 0x0DDC0FFE      # challenge word 0
        li   a1, 0x12345678      # challenge word 1
        sw   a0, 0(t0)
        sw   a1, 4(t0)
        li   t1, 1
        sw   t1, 8(t0)           # CTRL: start
    wait:
        lw   t2, 12(t0)          # STATUS
        andi t2, t2, 2
        beqz t2, wait
        lw   a0, 16(t0)          # RESPONSE0
        lw   a1, 20(t0)          # RESPONSE1
        li   a7, 0
        ecall
    ";

    /// Hashes 1 KiB of RAM with a toy rolling checksum, self-timing with
    /// rdcycle, then halts with the checksum in a0 (the firmware analog
    /// of the mutual-auth memory-hash evidence).
    pub const MEMORY_CHECK: &str = "
        rdcycle s0
        li   t0, 0x80010000      # region base
        li   t1, 0x80010400      # region end
        li   a0, 0
    loop:
        lw   t2, 0(t0)
        add  a0, a0, t2
        slli t3, a0, 7
        srli t4, a0, 25
        or   a0, t3, t4          # rotate left 7
        xor  a0, a0, t2
        addi t0, t0, 4
        bltu t0, t1, loop
        rdcycle s1
        sub  s2, s1, s0          # clock count evidence
        li   a7, 0
        ecall
    ";
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropuls_accel::config::NetworkConfig;
    use neuropuls_photonic::process::DieId;

    fn soc() -> Soc {
        Soc::new(PhotonicPuf::reference(DieId(1), 1), None)
    }

    #[test]
    fn halts_on_syscall_zero() {
        let mut s = soc();
        s.load_firmware("li a0, 42\nli a7, 0\necall").unwrap();
        assert_eq!(s.run(1000), StopReason::Halted(42));
    }

    #[test]
    fn putchar_syscall_writes_console() {
        let mut s = soc();
        s.load_firmware(
            "li a0, 72
             li a7, 1
             ecall
             li a0, 105
             ecall
             li a7, 0
             ecall",
        )
        .unwrap();
        assert!(matches!(s.run(1000), StopReason::Halted(_)));
        assert_eq!(s.console(), b"Hi");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut s = soc();
        s.load_firmware("spin: j spin").unwrap();
        assert_eq!(s.run(100), StopReason::BudgetExhausted);
    }

    #[test]
    fn firmware_reads_puf_through_mmio() {
        let mut s = soc();
        s.load_firmware(firmware::PUF_READ).unwrap();
        let reason = s.run(100_000);
        let StopReason::Halted(r0) = reason else {
            panic!("unexpected stop: {reason:?}");
        };
        assert_ne!(r0, 0, "PUF response word 0 should be nontrivial");
        assert_eq!(s.stats().scalar("puf.evaluations"), 1.0);
        assert!(s.stats().scalar("puf.energy_pj") > 0.0);
    }

    #[test]
    fn puf_response_via_firmware_is_reproducible() {
        let run_once = |die: u64, seed: u64| -> u32 {
            let mut s = Soc::new(PhotonicPuf::reference(DieId(die), seed), None);
            s.load_firmware(firmware::PUF_READ).unwrap();
            match s.run(100_000) {
                StopReason::Halted(r0) => r0,
                other => panic!("{other:?}"),
            }
        };
        let a = run_once(3, 1);
        let b = run_once(3, 2); // same die, different noise stream
        let flips = (a ^ b).count_ones();
        assert!(flips <= 4, "same die diverged by {flips} bits");
        let c = run_once(4, 1);
        assert!((a ^ c).count_ones() > 6, "different die too similar");
    }

    #[test]
    fn memory_check_firmware_self_times() {
        let mut s = soc();
        let data: Vec<u8> = (0..1024).map(|i| (i % 256) as u8).collect();
        s.load_bytes(0x8001_0000, &data).unwrap();
        s.load_firmware(firmware::MEMORY_CHECK).unwrap();
        let reason = s.run(100_000);
        assert!(matches!(reason, StopReason::Halted(_)));
        // s2 holds the rdcycle delta.
        assert!(s.cpu().regs[18] > 1000, "clock count {}", s.cpu().regs[18]);
    }

    #[test]
    fn memory_check_detects_corruption() {
        let checksum = |corrupt: bool| -> u32 {
            let mut s = soc();
            let mut data: Vec<u8> = (0..1024).map(|i| (i % 256) as u8).collect();
            if corrupt {
                data[512] ^= 1;
            }
            s.load_bytes(0x8001_0000, &data).unwrap();
            s.load_firmware(firmware::MEMORY_CHECK).unwrap();
            match s.run(100_000) {
                StopReason::Halted(sum) => sum,
                other => panic!("{other:?}"),
            }
        };
        assert_ne!(checksum(false), checksum(true));
    }

    #[test]
    fn accel_peripheral_reachable_from_firmware() {
        let mut engine = PhotonicEngine::reference(1);
        engine
            .load(NetworkConfig::mlp(
                &[4, 4],
                |_, o, i| {
                    if o == i {
                        2.0
                    } else {
                        0.0
                    }
                },
            ))
            .unwrap();
        let mut s = Soc::new(PhotonicPuf::reference(DieId(5), 1), Some(engine));
        // Write 1.0f32 to input 0, run, read output 0.
        s.load_firmware(
            "li  t0, 0x10001000
             li  t1, 0x3F800000     # 1.0f32
             sw  t1, 0(t0)
             li  t2, 1
             sw  t2, 16(t0)         # CTRL
         wait:
             lw  t3, 20(t0)         # STATUS
             andi t3, t3, 2
             beqz t3, wait
             lw  a0, 24(t0)         # OUTPUT0
             li  a7, 0
             ecall",
        )
        .unwrap();
        let StopReason::Halted(bits) = s.run(100_000) else {
            panic!("did not halt");
        };
        let y = f32::from_bits(bits);
        assert!((y - 2.0).abs() < 0.2, "y = {y}");
    }

    #[test]
    fn stats_include_energy_and_time() {
        let mut s = soc();
        s.load_firmware(firmware::PUF_READ).unwrap();
        let _ = s.run(100_000);
        let dump = s.stats().dump();
        assert!(dump.contains("cpu.instructions"));
        assert!(dump.contains("soc.energy_pj"));
        assert!(s.stats().scalar("soc.sim_time_ns") > 0.0);
        assert!(s.stats().scalar("cpu.ipc") > 0.0);
        assert!(dump.contains("bus.ram_reads"));
        assert!(
            s.stats().counter_value("bus.device_writes") >= 3,
            "PUF_READ issues at least challenge/CTRL device writes"
        );
        assert_eq!(s.stats().counter_value("bus.faults"), 0);
    }

    #[test]
    fn bus_counters_accumulate_across_runs() {
        let mut s = soc();
        s.load_firmware("li a0, 1\nli a7, 0\necall").unwrap();
        let _ = s.run(1000);
        let first = s.stats().counter_value("bus.ram_reads");
        assert!(first > 0, "instruction fetches count as RAM reads");
        // Re-running the same firmware adds a delta rather than
        // re-folding the cumulative bus tally.
        let mut s2 = soc();
        s2.load_firmware("li a0, 1\nli a7, 0\necall").unwrap();
        let _ = s2.run(1000);
        let _ = s2.run(1000);
        assert!(
            s2.stats().counter_value("bus.ram_reads") >= first,
            "second run must not shrink the counter"
        );
    }
}
