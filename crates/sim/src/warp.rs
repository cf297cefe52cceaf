//! Warp lockstep alignment: turns 32 per-lane instruction traces into
//! issue-group timing, divergence and memory-efficiency metrics.
//!
//! The model replays the lanes of a warp position-by-position. At each step
//! every unfinished lane presents its current op; ops of the same kind issue
//! together as one warp instruction (with the presenting lanes active),
//! while ops of *different* kinds at the same position serialize into
//! separate issue groups — the SIMT re-convergence behaviour that makes
//! divergent warps slow. Lanes that have finished their (shorter) traces
//! simply stop presenting, which is exactly how an irregular inner loop
//! degrades warp execution efficiency in the paper's baseline template.
//!
//! A warp is one instruction stream: lanes advance in lockstep, so at step
//! `s` every unfinished lane sits at trace position `s`. The aligner relies
//! on that. It keeps the unfinished lanes compacted in ascending lane order
//! and makes one pass over them per step, gathering each op into its issue
//! group's buffer and dropping the lanes whose traces end there; no lane
//! carries a position of its own. Groups then issue from their buffers in
//! the fixed [`ISSUE_GROUPS`] order, each seeing its lanes in ascending
//! order, so every counter and cycle sum is added in one fixed order.

use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::memory;
use crate::profiler::{KernelMetrics, StallCycles};
use crate::trace::{Op, OpGroup, ISSUE_GROUPS};

#[cfg(test)]
mod legacy;

/// A device-side launch observed during alignment: which grid, and how many
/// cycles into the segment the launching instruction completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaunchPoint {
    pub grid: u32,
    pub offset: f64,
}

/// Timing outcome of one warp over one barrier segment.
#[derive(Debug, Clone, Default)]
pub(crate) struct WarpOutcome {
    /// Execution cycles of the warp (its contribution to block work; the
    /// maximum over a block's warps is the segment span).
    pub cycles: f64,
    /// Device-side launches with their cycle offsets.
    pub launches: Vec<LaunchPoint>,
}

/// Widest warp the aligner holds: lanes are tracked as `u8` indices in
/// fixed 64-entry buffers. [`DeviceConfig::validate_launch`] refuses any
/// other warp size than a power of two up to this.
pub(crate) const MAX_WARP: usize = 64;

/// One step's ops split by issue group, each in ascending lane order.
#[derive(Debug)]
struct StepOps {
    reads: [(u64, u8); MAX_WARP],
    writes: [(u64, u8); MAX_WARP],
    shared_reads: [u32; MAX_WARP],
    shared_writes: [u32; MAX_WARP],
    atomics: [u64; MAX_WARP],
    shared_atomics: [u64; MAX_WARP],
    launches: [u32; MAX_WARP],
}

impl Default for StepOps {
    fn default() -> Self {
        StepOps {
            reads: [(0, 0); MAX_WARP],
            writes: [(0, 0); MAX_WARP],
            shared_reads: [0; MAX_WARP],
            shared_writes: [0; MAX_WARP],
            atomics: [0; MAX_WARP],
            shared_atomics: [0; MAX_WARP],
            launches: [0; MAX_WARP],
        }
    }
}

/// Reusable scratch buffers for alignment (allocation-free steady state).
///
/// Lanes advance in lockstep, so at step `s` every unfinished lane sits at
/// trace position `s`: the aligner keeps no per-lane position, only the
/// unfinished lanes, compacted in ascending lane order. One pass per step
/// reads each live lane's op into the per-group buffers of [`StepOps`] and
/// drops the lanes that just finished. The groups then issue from those
/// buffers in [`ISSUE_GROUPS`] order, so every group sees its lanes in
/// ascending order and every `f64` is added in the same order as a per-group
/// rescan of all lanes would add it.
#[derive(Debug, Default)]
pub(crate) struct AlignScratch {
    step: Box<StepOps>,
    lines: Vec<u64>,
    banks: Vec<u32>,
}

/// Align one warp's lane traces (1..=warp_size slices, one per lane) over a
/// single barrier segment, accumulating profiler counters into `metrics`.
pub(crate) fn align_warp(
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
    debug_assert!(n >= 1 && n <= device.warp_size as usize && n <= MAX_WARP);

    if cost.divergence == crate::cost::DivergenceModel::MaxLane {
        return max_lane_model(lanes, cost, metrics);
    }

    // Unfinished lanes, ascending. A lane leaves once the step reaches
    // its length, so every lane listed here has an op at `step`.
    let mut live = [0u8; MAX_WARP];
    let mut nlive = 0;
    for (i, lane) in lanes.iter().enumerate() {
        live[nlive] = i as u8;
        nlive += usize::from(!lane.is_empty());
    }

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
    let AlignScratch {
        step: ops,
        lines,
        banks,
    } = scratch;

    let mut step = 0usize;
    while nlive > 0 {
        // The one pass over the live lanes: gather this step's ops by group
        // and compact away the lanes whose trace ends here.
        let (mut max_n, mut sum_n) = (0u32, 0u64);
        let [mut nr, mut nw, mut nsr, mut nsw, mut na, mut nsa, mut nl] = [0usize; 7];
        let mut kept = 0;
        for i in 0..nlive {
            let l = live[i];
            let lane = lanes[usize::from(l)];
            match lane[step] {
                Op::Compute(k) => {
                    max_n = max_n.max(k);
                    sum_n += u64::from(k);
                }
                Op::GlobalRead { addr, size } => {
                    ops.reads[nr] = (addr, size);
                    nr += 1;
                }
                Op::GlobalWrite { addr, size } => {
                    ops.writes[nw] = (addr, size);
                    nw += 1;
                }
                Op::SharedRead { addr } => {
                    ops.shared_reads[nsr] = addr;
                    nsr += 1;
                }
                Op::SharedWrite { addr } => {
                    ops.shared_writes[nsw] = addr;
                    nsw += 1;
                }
                Op::AtomicGlobal { addr } => {
                    ops.atomics[na] = addr;
                    na += 1;
                }
                Op::AtomicShared { addr } => {
                    ops.shared_atomics[nsa] = u64::from(addr);
                    nsa += 1;
                }
                Op::Launch { grid } => {
                    ops.launches[nl] = grid;
                    nl += 1;
                }
                op @ (Op::Sync | Op::SyncChildren) => {
                    debug_assert!(
                        !op.is_delimiter(),
                        "delimiters must be stripped before alignment"
                    );
                }
            }
            live[kept] = l;
            kept += usize::from(lane.len() > step + 1);
        }
        nlive = kept;
        step += 1;

        // Issue each populated group in deterministic order.
        for group in ISSUE_GROUPS {
            match group {
                OpGroup::Compute => {
                    if max_n > 0 {
                        let dur = f64::from(max_n) * cost.alu_cycles;
                        out.cycles += dur;
                        issue_slots += warp * f64::from(max_n);
                        active_slots += sum_n as f64;
                        stalls.compute += sum_n as f64 * cost.alu_cycles;
                    }
                }
                OpGroup::GlobalRead | OpGroup::GlobalWrite => {
                    let accesses = if group == OpGroup::GlobalRead {
                        &ops.reads[..nr]
                    } else {
                        &ops.writes[..nw]
                    };
                    if accesses.is_empty() {
                        continue;
                    }
                    let c = memory::coalesce(
                        accesses.iter().copied(),
                        device.mem_transaction_bytes,
                        lines,
                    );
                    let active = accesses.len() as f64;
                    let dur =
                        cost.mem_base_cycles + c.transactions as f64 * cost.mem_transaction_cycles;
                    out.cycles += dur;
                    issue_slots += warp;
                    active_slots += active;
                    stalls.gmem += dur * active;
                    if group == OpGroup::GlobalRead {
                        metrics.gld_requested_bytes += c.requested_bytes;
                        metrics.gld_transactions += c.transactions;
                    } else {
                        metrics.gst_requested_bytes += c.requested_bytes;
                        metrics.gst_transactions += c.transactions;
                    }
                }
                OpGroup::SharedRead | OpGroup::SharedWrite => {
                    let addrs = if group == OpGroup::SharedRead {
                        &ops.shared_reads[..nsr]
                    } else {
                        &ops.shared_writes[..nsw]
                    };
                    if addrs.is_empty() {
                        continue;
                    }
                    let replays = memory::bank_replays(addrs, device.shared_banks, banks);
                    let active = addrs.len() as f64;
                    let dur = cost.shared_cycles * replays as f64;
                    out.cycles += dur;
                    issue_slots += warp;
                    active_slots += active;
                    metrics.shared_accesses += addrs.len() as u64;
                    metrics.shared_replays += replays;
                    stalls.shared += dur * active;
                }
                OpGroup::AtomicGlobal => {
                    if na == 0 {
                        continue;
                    }
                    // Sorting for the conflict count first hands the
                    // coalescer its lines in order.
                    let addrs = &mut ops.atomics[..na];
                    let conflicts = memory::max_multiplicity(addrs);
                    // Transactions for the distinct addresses touched.
                    let c = memory::coalesce(
                        addrs.iter().map(|&a| (a, 4u8)),
                        device.mem_transaction_bytes,
                        lines,
                    );
                    let dur = cost.atomic_base_cycles
                        + (conflicts.saturating_sub(1)) as f64 * cost.atomic_conflict_cycles
                        + c.transactions as f64 * cost.mem_transaction_cycles;
                    out.cycles += dur;
                    issue_slots += warp;
                    active_slots += na as f64;
                    metrics.atomics_global += na as u64;
                    stalls.atomic += dur * na as f64;
                }
                OpGroup::AtomicShared => {
                    if nsa == 0 {
                        continue;
                    }
                    let conflicts = memory::max_multiplicity(&mut ops.shared_atomics[..nsa]);
                    let dur = cost.shared_cycles
                        + (conflicts.saturating_sub(1)) as f64 * cost.atomic_shared_conflict_cycles;
                    out.cycles += dur;
                    issue_slots += warp;
                    active_slots += nsa as f64;
                    metrics.atomics_shared += nsa as u64;
                    stalls.atomic += dur * nsa as f64;
                }
                OpGroup::Launch => {
                    // Device-side launches serialize lane by lane. The
                    // whole serialized duration is launch overhead — the
                    // very cost the paper's dpar templates trade against —
                    // so none of it is charged to divergence.
                    for &grid in &ops.launches[..nl] {
                        out.cycles += cost.device_launch_issue_cycles;
                        issue_slots += warp;
                        active_slots += 1.0;
                        metrics.device_launches += 1;
                        stalls.launch += cost.device_launch_issue_cycles;
                        out.launches.push(LaunchPoint {
                            grid,
                            offset: out.cycles,
                        });
                    }
                }
            }
        }
    }

    metrics.issue_slots += issue_slots;
    metrics.active_slots += active_slots;
    metrics.work_cycles += out.cycles;
    finish_stalls(&mut stalls, inv_warp, out.cycles, metrics);
    out
}

/// Fold one warp's raw stall accumulators into the kernel metrics. The work
/// buckets were accumulated as dur x active-lanes; one exact power-of-two
/// scale per warp turns them into busy cycles (launch is already whole
/// cycles), and divergence is the remainder — which makes the partition of
/// the warp's cycles exact by construction. Kept out of line so the
/// alignment loop stays small.
#[inline(never)]
fn finish_stalls(
    stalls: &mut StallCycles,
    inv_warp: f64,
    cycles: f64,
    metrics: &mut KernelMetrics,
) {
    stalls.compute *= inv_warp;
    stalls.gmem *= inv_warp;
    stalls.shared *= inv_warp;
    stalls.atomic *= inv_warp;
    stalls.divergence = (cycles
        - (stalls.compute + stalls.gmem + stalls.shared + stalls.atomic + stalls.launch))
        .max(0.0);
    metrics.stalls.merge(stalls);
}

/// The [`crate::cost::DivergenceModel::MaxLane`] ablation: every lane is
/// costed as if it owned the warp (each access one transaction, no
/// divergence serialization, no conflicts); the warp takes as long as its
/// slowest lane and reports full efficiency. Launch offsets come from the
/// launching lane's own running cost.
fn max_lane_model(lanes: &[&[Op]], cost: &CostModel, metrics: &mut KernelMetrics) -> WarpOutcome {
    let mut out = WarpOutcome::default();
    let mut max_cycles = 0.0f64;
    let mut max_stalls = StallCycles::default();
    let mut total_ops = 0u64;
    for lane in lanes {
        let mut c = 0.0f64;
        let mut st = StallCycles::default();
        for op in lane.iter() {
            debug_assert!(!op.is_delimiter());
            total_ops += 1;
            match *op {
                Op::Compute(k) => {
                    c += f64::from(k) * cost.alu_cycles;
                    st.compute += f64::from(k) * cost.alu_cycles;
                }
                Op::GlobalRead { size, .. } => {
                    c += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    st.gmem += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    metrics.gld_requested_bytes += u64::from(size);
                    metrics.gld_transactions += 1;
                }
                Op::GlobalWrite { size, .. } => {
                    c += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    st.gmem += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    metrics.gst_requested_bytes += u64::from(size);
                    metrics.gst_transactions += 1;
                }
                Op::SharedRead { .. } | Op::SharedWrite { .. } => {
                    c += cost.shared_cycles;
                    st.shared += cost.shared_cycles;
                    metrics.shared_accesses += 1;
                }
                Op::AtomicGlobal { .. } => {
                    c += cost.atomic_base_cycles + cost.mem_transaction_cycles;
                    st.atomic += cost.atomic_base_cycles + cost.mem_transaction_cycles;
                    metrics.atomics_global += 1;
                }
                Op::AtomicShared { .. } => {
                    c += cost.shared_cycles;
                    st.atomic += cost.shared_cycles;
                    metrics.atomics_shared += 1;
                }
                Op::Launch { grid } => {
                    c += cost.device_launch_issue_cycles;
                    st.launch += cost.device_launch_issue_cycles;
                    metrics.device_launches += 1;
                    out.launches.push(LaunchPoint { grid, offset: c });
                }
                Op::Sync | Op::SyncChildren => unreachable!(),
            }
        }
        if c > max_cycles {
            max_cycles = c;
            max_stalls = st;
        }
    }
    out.cycles = max_cycles;
    // No divergence by construction: report full efficiency, and attribute
    // the warp's cycles as the slowest lane's own breakdown.
    metrics.issue_slots += total_ops as f64;
    metrics.active_slots += total_ops as f64;
    metrics.work_cycles += out.cycles;
    metrics.stalls.merge(&max_stalls);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn run(lanes: &[Vec<Op>]) -> (WarpOutcome, KernelMetrics) {
        let device = DeviceConfig::kepler_k20();
        let cost = CostModel::default();
        let mut metrics = KernelMetrics::default();
        let mut scratch = AlignScratch::default();
        let refs: Vec<&[Op]> = lanes.iter().map(|v| v.as_slice()).collect();
        let out = align_warp(&refs, &device, &cost, &mut metrics, &mut scratch);
        (out, metrics)
    }

    #[test]
    fn uniform_compute_full_efficiency() {
        let lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![Op::Compute(4)]).collect();
        let (out, m) = run(&lanes);
        assert!((m.warp_execution_efficiency() - 1.0).abs() < 1e-12);
        assert!((out.cycles - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variable_trip_counts_degrade_efficiency() {
        // Lane i executes i+1 compute steps: classic irregular inner loop.
        let lanes: Vec<Vec<Op>> = (0..32)
            .map(|i| (0..=i).map(|_| Op::Compute(1)).collect())
            .collect();
        let (out, m) = run(&lanes);
        // 32 steps, sum of active lanes = 32+31+..+1 = 528.
        assert!((out.cycles - 32.0).abs() < 1e-12);
        let expected = 528.0 / (32.0 * 32.0);
        assert!((m.warp_execution_efficiency() - expected).abs() < 1e-12);
    }

    #[test]
    fn coalesced_load_metrics() {
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                vec![Op::GlobalRead {
                    addr: i * 4,
                    size: 4,
                }]
            })
            .collect();
        let (_, m) = run(&lanes);
        assert_eq!(m.gld_transactions, 1);
        assert_eq!(m.gld_requested_bytes, 128);
        assert!((m.gld_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_store_metrics() {
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                vec![Op::GlobalWrite {
                    addr: i * 4096,
                    size: 4,
                }]
            })
            .collect();
        let (_, m) = run(&lanes);
        assert_eq!(m.gst_transactions, 32);
        assert!((m.gst_efficiency() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn divergent_kinds_serialize() {
        // Half the lanes load, half compute: two issue groups in one step.
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                if i % 2 == 0 {
                    vec![Op::Compute(1)]
                } else {
                    vec![Op::GlobalRead {
                        addr: i * 4,
                        size: 4,
                    }]
                }
            })
            .collect();
        let (out, m) = run(&lanes);
        let cost = CostModel::default();
        // The 16 loads at addrs 4..124 share one 128-byte line.
        let expected = cost.alu_cycles + cost.mem_base_cycles + cost.mem_transaction_cycles;
        assert!(
            (out.cycles - expected).abs() < 1e-9,
            "cycles {}",
            out.cycles
        );
        // 2 issued instructions, 16 active lanes each.
        assert!((m.warp_execution_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_address_atomics_serialize() {
        let same: Vec<Vec<Op>> = (0..32)
            .map(|_| vec![Op::AtomicGlobal { addr: 64 }])
            .collect();
        let (out_same, m_same) = run(&same);
        let distinct: Vec<Vec<Op>> = (0..32u64)
            .map(|i| vec![Op::AtomicGlobal { addr: i * 4096 }])
            .collect();
        let (out_distinct, m_distinct) = run(&distinct);
        assert_eq!(m_same.atomics_global, 32);
        assert_eq!(m_distinct.atomics_global, 32);
        // Conflicting atomics cost more serialization than scattered ones
        // (scattered pay transactions, conflicting pay replays; replays are
        // the dominant term by construction of the cost model).
        let cost = CostModel::default();
        assert!(
            (out_same.cycles
                - (cost.atomic_base_cycles
                    + 31.0 * cost.atomic_conflict_cycles
                    + cost.mem_transaction_cycles))
                .abs()
                < 1e-9
        );
        assert!(
            (out_distinct.cycles - (cost.atomic_base_cycles + 32.0 * cost.mem_transaction_cycles))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn launches_serialize_and_record_offsets() {
        let mut lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![]).collect();
        lanes[3] = vec![Op::Launch { grid: 7 }];
        lanes[9] = vec![Op::Launch { grid: 8 }];
        let (out, m) = run(&lanes);
        assert_eq!(m.device_launches, 2);
        assert_eq!(out.launches.len(), 2);
        assert_eq!(out.launches[0].grid, 7);
        assert_eq!(out.launches[1].grid, 8);
        assert!(out.launches[0].offset < out.launches[1].offset);
        let cost = CostModel::default();
        assert!((out.cycles - 2.0 * cost.device_launch_issue_cycles).abs() < 1e-9);
    }

    #[test]
    fn partial_warp_counts_against_full_width() {
        let lanes: Vec<Vec<Op>> = (0..8).map(|_| vec![Op::Compute(1)]).collect();
        let (_, m) = run(&lanes);
        assert!((m.warp_execution_efficiency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_lanes_cost_nothing() {
        let lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![]).collect();
        let (out, m) = run(&lanes);
        assert_eq!(out.cycles, 0.0);
        assert_eq!(m.issue_slots, 0.0);
    }

    #[test]
    fn stall_buckets_partition_work_cycles() {
        // A mixed workload: divergent compute, scattered loads, a launch.
        let mut lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                vec![
                    Op::Compute((i % 7) as u32 + 1),
                    Op::GlobalRead {
                        addr: i * 4096,
                        size: 4,
                    },
                    Op::AtomicGlobal { addr: 8 },
                ]
            })
            .collect();
        lanes[0].push(Op::Launch { grid: 1 });
        let (out, m) = run(&lanes);
        let sum = m.stalls.compute
            + m.stalls.divergence
            + m.stalls.gmem
            + m.stalls.atomic
            + m.stalls.shared
            + m.stalls.launch;
        assert!(
            (sum - m.work_cycles).abs() < 1e-9 * m.work_cycles.max(1.0),
            "bucket sum {sum} != work {}",
            m.work_cycles
        );
        assert!((m.work_cycles - out.cycles).abs() < 1e-12);
        assert!(m.stalls.compute > 0.0);
        assert!(
            m.stalls.divergence > 0.0,
            "uneven trip counts must idle lanes"
        );
        assert!(m.stalls.gmem > 0.0);
        assert!(m.stalls.atomic > 0.0);
        assert!((m.stalls.launch - CostModel::default().device_launch_issue_cycles).abs() < 1e-12);
        assert_eq!(m.stalls.barrier, 0.0, "barriers are charged by the block");
    }

    #[test]
    fn uniform_compute_has_no_divergence_stall() {
        let lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![Op::Compute(4)]).collect();
        let (_, m) = run(&lanes);
        assert!((m.stalls.compute - m.work_cycles).abs() < 1e-12);
        assert_eq!(m.stalls.divergence, 0.0);
    }

    #[test]
    fn max_lane_model_attributes_slowest_lane() {
        let device = DeviceConfig::kepler_k20();
        let cost = CostModel {
            divergence: crate::cost::DivergenceModel::MaxLane,
            ..CostModel::default()
        };
        let mut metrics = KernelMetrics::default();
        let mut scratch = AlignScratch::default();
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                let mut v = vec![Op::Compute(i as u32 + 1)];
                if i == 31 {
                    v.push(Op::GlobalRead { addr: 0, size: 4 });
                }
                v
            })
            .collect();
        let refs: Vec<&[Op]> = lanes.iter().map(|v| v.as_slice()).collect();
        let out = align_warp(&refs, &device, &cost, &mut metrics, &mut scratch);
        assert_eq!(metrics.stalls.divergence, 0.0);
        assert!(
            (metrics.stalls.total() - out.cycles).abs() < 1e-9,
            "maxlane buckets must sum to the slowest lane"
        );
        assert!(metrics.stalls.gmem > 0.0);
    }

    /// A random op for one lane: every kind, global accesses that straddle
    /// lines or repeat an address, a few shared and atomic addresses so
    /// banks and atomics conflict, and launches with fresh grid ids.
    fn random_op(rng: &mut ChaCha8Rng, lane: u64, next_grid: &mut u32) -> Op {
        let global = |rng: &mut ChaCha8Rng| match rng.gen_range(0u32..4) {
            // Lanes in order over consecutive words: the coalescer's
            // in-order path.
            0 => lane * 4,
            // A line boundary straddled by a wide access.
            1 => 128 * rng.gen_range(0u64..4) + 124,
            // One of a few shared addresses.
            2 => [0, 64, 256, 4096][rng.gen_range(0usize..4)],
            _ => rng.gen_range(0u64..8192),
        };
        match rng.gen_range(0u32..9) {
            0 | 1 => Op::Compute(rng.gen_range(0u32..5)),
            2 => Op::GlobalRead {
                addr: global(rng),
                size: [0u8, 1, 4, 8, 12, 16][rng.gen_range(0usize..6)],
            },
            3 => Op::GlobalWrite {
                addr: global(rng),
                size: [1u8, 4, 8][rng.gen_range(0usize..3)],
            },
            4 => Op::SharedRead {
                addr: rng.gen_range(0u32..64) * 4,
            },
            5 => Op::SharedWrite {
                addr: rng.gen_range(0u32..8) * 128,
            },
            6 => Op::AtomicGlobal {
                addr: [0u64, 8, 128, 4096][rng.gen_range(0usize..4)] + lane % 2 * 4,
            },
            7 => Op::AtomicShared {
                addr: rng.gen_range(0u32..4) * 4,
            },
            _ => {
                *next_grid += 1;
                Op::Launch { grid: *next_grid }
            }
        }
    }

    fn metric_bits(m: &KernelMetrics) -> Vec<u64> {
        let s = &m.stalls;
        vec![
            m.grids,
            m.blocks,
            m.threads,
            m.issue_slots.to_bits(),
            m.active_slots.to_bits(),
            m.gld_requested_bytes,
            m.gld_transactions,
            m.gst_requested_bytes,
            m.gst_transactions,
            m.shared_accesses,
            m.shared_replays,
            m.atomics_global,
            m.atomics_shared,
            m.device_launches,
            m.barriers,
            m.work_cycles.to_bits(),
            s.compute.to_bits(),
            s.divergence.to_bits(),
            s.gmem.to_bits(),
            s.shared.to_bits(),
            s.atomic.to_bits(),
            s.launch.to_bits(),
            s.barrier.to_bits(),
        ]
    }

    #[test]
    fn one_pass_aligner_matches_the_previous_aligner() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1a9e);
        let cost = CostModel::default();
        let mut scratch = AlignScratch::default();
        let mut old_scratch = legacy::AlignScratch::default();
        let mut next_grid = 0u32;
        for case in 0..400 {
            let mut device = DeviceConfig::kepler_k20();
            device.warp_size = [64, 32, 8, 1][case % 4];
            let n = rng.gen_range(1..=device.warp_size as usize);
            let lanes: Vec<Vec<Op>> = (0..n as u64)
                .map(|lane| {
                    let len = rng.gen_range(0usize..40);
                    (0..len)
                        .map(|_| random_op(&mut rng, lane, &mut next_grid))
                        .collect()
                })
                .collect();
            let refs: Vec<&[Op]> = lanes.iter().map(|v| v.as_slice()).collect();
            let mut m_new = KernelMetrics::default();
            let mut m_old = KernelMetrics::default();
            let new = align_warp(&refs, &device, &cost, &mut m_new, &mut scratch);
            let old = legacy::align_warp(&refs, &device, &cost, &mut m_old, &mut old_scratch);
            assert_eq!(new.cycles.to_bits(), old.cycles.to_bits(), "case {case}");
            let points = |o: &WarpOutcome| -> Vec<(u32, u64)> {
                o.launches
                    .iter()
                    .map(|l| (l.grid, l.offset.to_bits()))
                    .collect()
            };
            assert_eq!(points(&new), points(&old), "case {case}");
            assert_eq!(metric_bits(&m_new), metric_bits(&m_old), "case {case}");
        }
    }

    #[test]
    fn in_order_coalescing_matches_sort_and_dedup() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xc0a1);
        let (mut lines, mut old_lines) = (Vec::new(), Vec::new());
        for case in 0..2000 {
            let n = rng.gen_range(0usize..=64);
            let sorted = rng.gen_bool(0.5);
            let mut addr = rng.gen_range(0u64..1024);
            let accesses: Vec<(u64, u8)> = (0..n)
                .map(|_| {
                    if sorted {
                        addr += rng.gen_range(0u64..200);
                    } else {
                        addr = rng.gen_range(0u64..4096);
                    }
                    (addr, [0u8, 1, 4, 8, 12, 200][rng.gen_range(0usize..6)])
                })
                .collect();
            for line_bytes in [32, 128] {
                let new = memory::coalesce(accesses.iter().copied(), line_bytes, &mut lines);
                let old = legacy::coalesce(&accesses, line_bytes, &mut old_lines);
                assert_eq!(new, old, "case {case}, {line_bytes}-byte lines");
            }
        }
    }

    #[test]
    fn shared_bank_conflicts_cost_replays() {
        let conflict: Vec<Vec<Op>> = (0..32u32)
            .map(|i| vec![Op::SharedRead { addr: i * 128 }])
            .collect();
        let (out, m) = run(&conflict);
        let cost = CostModel::default();
        assert_eq!(m.shared_replays, 32);
        assert!((out.cycles - 32.0 * cost.shared_cycles).abs() < 1e-9);
    }
}
