//! The aligner and coalescer this crate used before the one-pass lockstep
//! aligner, kept as a test reference: `align_warp` walks every lane three
//! or more times per step (a group mask, one gather per group present and
//! a position advance), and `coalesce` always sorts and dedups its lines.
//! The randomized test in `warp::tests` pins the rebuilt ones to these
//! cycles, launch lists and metrics bit for bit.

use super::{finish_stalls, max_lane_model, LaunchPoint, WarpOutcome};
use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::memory::{self, Coalesce};
use crate::profiler::{KernelMetrics, StallCycles};
use crate::trace::{Op, OpGroup, ISSUE_GROUPS};

/// The previous alignment scratch, with its per-lane positions.
#[derive(Debug, Default)]
pub(super) struct AlignScratch {
    positions: Vec<usize>,
    gaddrs: Vec<(u64, u8)>,
    aaddrs: Vec<u64>,
    saddrs: Vec<u32>,
    lines: Vec<u64>,
    banks: Vec<u32>,
}

/// Align one warp's lane traces (1..=warp_size slices, one per lane) over a
/// single barrier segment, accumulating profiler counters into `metrics`.
pub(super) fn align_warp(
    lanes: &[&[Op]],
    device: &DeviceConfig,
    cost: &CostModel,
    metrics: &mut KernelMetrics,
    scratch: &mut AlignScratch,
) -> WarpOutcome {
    let warp = f64::from(device.warp_size);
    // Warp widths are powers of two, so multiplying by the reciprocal is
    // bit-identical to dividing and keeps the per-group stall split off
    // the fp-divide unit (it runs once per issue group, the hot path).
    let inv_warp = 1.0 / warp;
    let n = lanes.len();
    debug_assert!(n >= 1 && n <= device.warp_size as usize);

    if cost.divergence == crate::cost::DivergenceModel::MaxLane {
        return max_lane_model(lanes, cost, metrics);
    }

    scratch.positions.clear();
    scratch.positions.resize(n, 0);

    let mut out = WarpOutcome::default();
    let mut issue_slots = 0.0f64;
    let mut active_slots = 0.0f64;
    // Stall attribution: each issue group's duration splits into a busy
    // share (active lanes / warp width, charged to the group's kind) and
    // an idle remainder (charged to divergence). The hot loop accumulates
    // the raw dur x active products; the busy scaling and the divergence
    // remainder happen once per warp below. Accumulated locally and merged
    // once at the end — the same single-add discipline as the counters
    // above, which keeps memoized replays bit-identical.
    let mut stalls = StallCycles::default();

    loop {
        // One pass over the unfinished lanes collects which issue groups
        // the step contains as a bitmask — no per-lane `Option<Op>`
        // snapshot; the group branches below re-read the ops directly.
        let mut mask = 0u16;
        for (pos, lane) in scratch.positions.iter().zip(lanes) {
            if let Some(&op) = lane.get(*pos) {
                debug_assert!(
                    !op.is_delimiter(),
                    "delimiters must be stripped before alignment"
                );
                mask |= 1 << op.group() as u8;
            }
        }
        if mask == 0 {
            break;
        }

        // Issue each populated group in deterministic order.
        for group in ISSUE_GROUPS {
            if mask & (1 << group as u8) == 0 {
                continue;
            }
            match group {
                OpGroup::Compute => {
                    let mut max_n = 0u32;
                    let mut sum_n = 0u64;
                    for (pos, lane) in scratch.positions.iter().zip(lanes) {
                        if let Some(Op::Compute(k)) = lane.get(*pos) {
                            max_n = max_n.max(*k);
                            sum_n += u64::from(*k);
                        }
                    }
                    if max_n > 0 {
                        let dur = f64::from(max_n) * cost.alu_cycles;
                        out.cycles += dur;
                        issue_slots += warp * f64::from(max_n);
                        active_slots += sum_n as f64;
                        stalls.compute += sum_n as f64 * cost.alu_cycles;
                    }
                }
                OpGroup::GlobalRead | OpGroup::GlobalWrite => {
                    // Membership comes from the shared Op::group dispatch
                    // (the hazard checker classifies accesses the same way).
                    scratch.gaddrs.clear();
                    for (pos, lane) in scratch.positions.iter().zip(lanes) {
                        let Some(op) = lane.get(*pos) else {
                            continue;
                        };
                        if op.group() != group {
                            continue;
                        }
                        if let Op::GlobalRead { addr, size } | Op::GlobalWrite { addr, size } = op {
                            scratch.gaddrs.push((*addr, *size));
                        }
                    }
                    if !scratch.gaddrs.is_empty() {
                        let c = coalesce(
                            &scratch.gaddrs,
                            device.mem_transaction_bytes,
                            &mut scratch.lines,
                        );
                        let dur = cost.mem_base_cycles
                            + c.transactions as f64 * cost.mem_transaction_cycles;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += scratch.gaddrs.len() as f64;
                        stalls.gmem += dur * scratch.gaddrs.len() as f64;
                        if group == OpGroup::GlobalRead {
                            metrics.gld_requested_bytes += c.requested_bytes;
                            metrics.gld_transactions += c.transactions;
                        } else {
                            metrics.gst_requested_bytes += c.requested_bytes;
                            metrics.gst_transactions += c.transactions;
                        }
                    }
                }
                OpGroup::SharedRead | OpGroup::SharedWrite => {
                    scratch.saddrs.clear();
                    for (pos, lane) in scratch.positions.iter().zip(lanes) {
                        let Some(op) = lane.get(*pos) else {
                            continue;
                        };
                        if op.group() != group {
                            continue;
                        }
                        if let Op::SharedRead { addr } | Op::SharedWrite { addr } = op {
                            scratch.saddrs.push(*addr);
                        }
                    }
                    if !scratch.saddrs.is_empty() {
                        let replays = memory::bank_replays(
                            &scratch.saddrs,
                            device.shared_banks,
                            &mut scratch.banks,
                        );
                        let dur = cost.shared_cycles * replays as f64;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += scratch.saddrs.len() as f64;
                        metrics.shared_accesses += scratch.saddrs.len() as u64;
                        metrics.shared_replays += replays;
                        stalls.shared += dur * scratch.saddrs.len() as f64;
                    }
                }
                OpGroup::AtomicGlobal => {
                    scratch.aaddrs.clear();
                    for (pos, lane) in scratch.positions.iter().zip(lanes) {
                        if let Some(Op::AtomicGlobal { addr }) = lane.get(*pos) {
                            scratch.aaddrs.push(*addr);
                        }
                    }
                    if !scratch.aaddrs.is_empty() {
                        let count = scratch.aaddrs.len();
                        // Transactions for the distinct addresses touched.
                        scratch.gaddrs.clear();
                        scratch
                            .gaddrs
                            .extend(scratch.aaddrs.iter().map(|&a| (a, 4u8)));
                        let c = coalesce(
                            &scratch.gaddrs,
                            device.mem_transaction_bytes,
                            &mut scratch.lines,
                        );
                        let conflicts = memory::max_multiplicity(&mut scratch.aaddrs);
                        let dur = cost.atomic_base_cycles
                            + (conflicts.saturating_sub(1)) as f64 * cost.atomic_conflict_cycles
                            + c.transactions as f64 * cost.mem_transaction_cycles;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += count as f64;
                        metrics.atomics_global += count as u64;
                        stalls.atomic += dur * count as f64;
                    }
                }
                OpGroup::AtomicShared => {
                    scratch.aaddrs.clear();
                    for (pos, lane) in scratch.positions.iter().zip(lanes) {
                        if let Some(Op::AtomicShared { addr }) = lane.get(*pos) {
                            scratch.aaddrs.push(u64::from(*addr));
                        }
                    }
                    if !scratch.aaddrs.is_empty() {
                        let count = scratch.aaddrs.len();
                        let conflicts = memory::max_multiplicity(&mut scratch.aaddrs);
                        let dur = cost.shared_cycles
                            + (conflicts.saturating_sub(1)) as f64
                                * cost.atomic_shared_conflict_cycles;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += count as f64;
                        metrics.atomics_shared += count as u64;
                        stalls.atomic += dur * count as f64;
                    }
                }
                OpGroup::Launch => {
                    // Device-side launches serialize lane by lane. The
                    // whole serialized duration is launch overhead — the
                    // very cost the paper's dpar templates trade against —
                    // so none of it is charged to divergence.
                    for (pos, lane) in scratch.positions.iter().zip(lanes) {
                        if let Some(Op::Launch { grid }) = lane.get(*pos) {
                            out.cycles += cost.device_launch_issue_cycles;
                            issue_slots += warp;
                            active_slots += 1.0;
                            metrics.device_launches += 1;
                            stalls.launch += cost.device_launch_issue_cycles;
                            out.launches.push(LaunchPoint {
                                grid: *grid,
                                offset: out.cycles,
                            });
                        }
                    }
                }
            }
        }

        for (pos, lane) in scratch.positions.iter_mut().zip(lanes) {
            if *pos < lane.len() {
                *pos += 1;
            }
        }
    }

    metrics.issue_slots += issue_slots;
    metrics.active_slots += active_slots;
    metrics.work_cycles += out.cycles;
    finish_stalls(&mut stalls, inv_warp, out.cycles, metrics);
    out
}

/// Analyze one warp-wide global access. `accesses` holds `(addr, size)` for
/// each active lane. Scratch is caller-provided to avoid per-step allocation.
pub(super) fn coalesce(
    accesses: &[(u64, u8)],
    line_bytes: u32,
    scratch: &mut Vec<u64>,
) -> Coalesce {
    debug_assert!(line_bytes.is_power_of_two());
    let shift = line_bytes.trailing_zeros();
    scratch.clear();
    let mut requested = 0u64;
    for &(addr, size) in accesses {
        requested += u64::from(size);
        let first = addr >> shift;
        // A single lane access can straddle a line boundary.
        let last = (addr + u64::from(size).max(1) - 1) >> shift;
        for line in first..=last {
            scratch.push(line);
        }
    }
    scratch.sort_unstable();
    scratch.dedup();
    Coalesce {
        requested_bytes: requested,
        transactions: scratch.len() as u64,
    }
}
