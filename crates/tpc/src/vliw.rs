//! VLIW issue-slot scheduler for recorded TPC instruction traces.
//!
//! The TPC "is a highly programmable, VLIW-based processor designed to
//! execute multiple types of instructions in parallel. Each instruction
//! type is processed by dedicated units that handle load/store operations
//! and scalar/vector operations" (§2.1), with a 4-cycle architectural
//! latency \[27\]. The kernel DSL (`crate::program`) records every issued
//! instruction with its register dependencies; this module schedules the
//! trace cycle by cycle:
//!
//! * one instruction per slot (LOAD / VPU / STORE) per cycle,
//! * an instruction issues only when its source registers are `latency`
//!   cycles past their producer's issue,
//! * the issue window is limited to the compiler's software-pipelining
//!   reach — `unroll` iterations' worth of instructions. A window of one
//!   iteration reproduces the stalled, non-unrolled behaviour of
//!   Figure 8(b); wide windows approach the slot bound.

use serde::{Deserialize, Serialize};

/// Issue slot of the VLIW packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Slot {
    /// Load unit (`ld_tnsr`).
    Load,
    /// Vector unit (`v_*` arithmetic).
    Vpu,
    /// Store unit (`st_tnsr`).
    Store,
}

/// One recorded instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceInstr {
    /// Issue slot.
    pub slot: Slot,
    /// Source register ids that must be ready before issue.
    pub srcs: Vec<u32>,
    /// Destination register id, if the instruction produces a value.
    pub dst: Option<u32>,
    /// Index-space member this instruction belongs to (window boundary).
    pub member: u32,
}

/// Schedule `trace` with a software-pipelining window of `window_members`
/// index-space members and `latency` cycles of producer→consumer delay.
/// Returns the cycle in which the last instruction issues, plus the drain
/// latency.
///
/// # Panics
/// Panics if `window_members` is zero.
#[must_use]
pub fn schedule(trace: &[TraceInstr], window_members: u32, latency: u32) -> u64 {
    assert!(window_members > 0, "window must cover at least one member");
    if trace.is_empty() {
        return 0;
    }
    // dcm-lint: allow(C1) u32 register ids fit usize losslessly on 32- and 64-bit targets
    let reg = |r: u32| r as usize;
    // ready[r] = cycle at which register r can be consumed. Registers that
    // some instruction *will* produce are unavailable until it issues;
    // registers with no producer (constants, id 0) are always ready.
    let max_reg = reg(trace
        .iter()
        .flat_map(|i| i.dst.iter().chain(i.srcs.iter()))
        .max()
        .copied()
        .unwrap_or(0));
    let mut ready = vec![0u64; max_reg + 1];
    for instr in trace {
        if let Some(d) = instr.dst {
            ready[reg(d)] = u64::MAX;
        }
    }
    let mut issued = vec![false; trace.len()];
    let mut next_unissued = 0usize;
    let mut cycle = 0u64;
    let mut last_issue = 0u64;
    let mut remaining = trace.len();

    while remaining > 0 {
        // The window spans instructions of members within `window_members`
        // of the oldest unissued instruction's member.
        let base_member = trace[next_unissued].member;
        let mut used = [false; 3];
        let mut i = next_unissued;
        while i < trace.len() {
            let instr = &trace[i];
            if instr.member >= base_member + window_members {
                break;
            }
            if !issued[i] {
                let slot_idx = match instr.slot {
                    Slot::Load => 0,
                    Slot::Vpu => 1,
                    Slot::Store => 2,
                };
                let deps_ready = instr.srcs.iter().all(|&r| ready[reg(r)] <= cycle);
                if !used[slot_idx] && deps_ready {
                    used[slot_idx] = true;
                    issued[i] = true;
                    remaining -= 1;
                    last_issue = cycle;
                    if let Some(d) = instr.dst {
                        ready[reg(d)] = cycle + u64::from(latency);
                    }
                }
            }
            i += 1;
        }
        while next_unissued < trace.len() && issued[next_unissued] {
            next_unissued += 1;
        }
        cycle += 1;
    }
    last_issue + u64::from(latency) + 1
}

/// Lower bound: the busiest slot's instruction count (what perfect
/// pipelining achieves).
#[must_use]
pub fn slot_bound(trace: &[TraceInstr]) -> u64 {
    let mut counts = [0u64; 3];
    for i in trace {
        counts[match i.slot {
            Slot::Load => 0,
            Slot::Vpu => 1,
            Slot::Store => 2,
        }] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a SCALE-like member: one load -> one vpu -> one store.
    fn scale_member(member: u32, base_reg: u32) -> Vec<TraceInstr> {
        vec![
            TraceInstr {
                slot: Slot::Load,
                srcs: vec![],
                dst: Some(base_reg),
                member,
            },
            TraceInstr {
                slot: Slot::Vpu,
                srcs: vec![base_reg],
                dst: Some(base_reg + 1),
                member,
            },
            TraceInstr {
                slot: Slot::Store,
                srcs: vec![base_reg + 1],
                dst: None,
                member,
            },
        ]
    }

    fn scale_trace(members: u32) -> Vec<TraceInstr> {
        (0..members)
            .flat_map(|m| scale_member(m, m * 2 + 1))
            .collect()
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        assert_eq!(schedule(&[], 4, 4), 0);
    }

    #[test]
    fn single_member_pays_full_latency_chain() {
        // load@0, vpu@4, store@8 -> drain at 8+4+1 = 13.
        let t = scale_trace(1);
        assert_eq!(schedule(&t, 1, 4), 13);
    }

    #[test]
    fn unrolling_hides_latency() {
        // 16 members: window 1 serializes the chains; window 8 overlaps
        // them down toward the slot bound (16 cycles of each slot).
        let t = scale_trace(16);
        let narrow = schedule(&t, 1, 4);
        let wide = schedule(&t, 8, 4);
        assert!(narrow > wide, "narrow {narrow} vs wide {wide}");
        assert!(wide < slot_bound(&t) * 2, "wide {wide}");
        // Narrow: each member's chain serializes: ~9 cycles per member.
        assert!(narrow as f64 > 16.0 * 8.0);
    }

    #[test]
    fn wider_windows_never_hurt() {
        let t = scale_trace(12);
        let mut prev = u64::MAX;
        for w in [1u32, 2, 4, 8, 16] {
            let c = schedule(&t, w, 4);
            assert!(c <= prev, "window {w}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn schedule_respects_dependencies() {
        // A store that reads a register must not issue before its producer
        // plus latency. With latency 100 the makespan reflects it.
        let t = scale_trace(1);
        let c = schedule(&t, 4, 100);
        assert!(c >= 201, "{c}");
    }

    #[test]
    fn zero_latency_reaches_slot_bound_quickly() {
        let t = scale_trace(32);
        let c = schedule(&t, 32, 0);
        // All three slots busy every cycle: 32 cycles + 1.
        assert!(c <= slot_bound(&t) + 3, "{c} vs {}", slot_bound(&t));
    }

    #[test]
    fn slot_bound_counts_busiest_unit() {
        let t = scale_trace(5);
        assert_eq!(slot_bound(&t), 5);
        let mut loads_heavy = scale_trace(2);
        loads_heavy.push(TraceInstr {
            slot: Slot::Load,
            srcs: vec![],
            dst: Some(99),
            member: 1,
        });
        assert_eq!(slot_bound(&loads_heavy), 3);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = schedule(&scale_trace(1), 0, 4);
    }
}
