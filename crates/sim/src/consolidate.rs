//! Workload consolidation for dynamic parallelism (DESIGN.md §15).
//!
//! The source paper's central finding is that naive dynamic parallelism
//! drowns in per-child launch overhead. Wu/Li/Becchi ("Compiler-Assisted
//! Workload Consolidation for Efficient Dynamic Parallelism on GPU") and
//! Olabi/Gómez Luna/Mutlu/Hwu/El Hajj ("A Compiler Framework for
//! Optimizing Dynamic Parallelism on GPUs") recover most of that loss with
//! two source-to-source transforms: **aggregate** the many tiny child
//! grids that sibling threads launch into one consolidated grid (at
//! per-warp, per-block, or per-grid granularity), and **inline** launches
//! below a size threshold as serial execution in the launching thread.
//!
//! This module applies both transforms to the *recorded* launch stream —
//! the `GridTask` list the engine accumulated between synchronizes —
//! just before the timing pass. Functional execution, hazard checking,
//! and per-kernel metrics all happened at trace time, so kernel memory
//! and hazard reports are byte-identical at any setting by construction;
//! only modeled time, the batch launch counts, and the timeline change.
//! The flattened thread-index remap of the compiler transform corresponds
//! here to concatenating the member grids' block outcomes (members share
//! a block shape, so block `i` of member `m` becomes block
//! `offset(m) + i` of the consolidated grid) — the per-thread traces are
//! untouched, which is the byte-identity argument in miniature.
//!
//! Soundness against the scheduler's join accounting: every device grid
//! must have exactly one launch entry in its origin block's segments.
//! Aggregation keeps that balance — the anchor keeps its entry and every
//! merged-away member loses both its entry and its grid. Groups never
//! span a `wait_children` boundary: per-warp and per-block groups are
//! keyed by (block, barrier segment), and per-grid grouping degrades to
//! per-block whenever the parent joins children mid-kernel.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::DeviceConfig;
use crate::engine::{GridTask, Origin};
use crate::profiler::KernelMetrics;

/// Granularity at which the consolidation pass aggregates sibling device
/// launches, selected via [`crate::Gpu::with_consolidation`] or the
/// `--consolidate` bench flag (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsolidateMode {
    /// No transform: every recorded device launch is timed as issued.
    Off,
    /// Aggregate launches issued by one warp of the parent block (same
    /// block, same warp, same barrier segment) into one consolidated grid.
    Warp,
    /// Aggregate launches issued by one parent block (same barrier
    /// segment) into one consolidated grid — the granularity both source
    /// compilers default to.
    Block,
    /// Aggregate launches from the whole parent grid. Degrades to
    /// [`ConsolidateMode::Block`] for parents that join their children
    /// mid-kernel, because the scheduler's join accounting is per block.
    Grid,
    /// Pick the granularity per parent kernel from npar-analyze shape
    /// facts (mean child size, join structure) and npar-prof launch-stall
    /// shares; parents with no measured launch pressure are left alone.
    /// Threshold inlining applies in every mode but `Off`.
    Auto,
}

impl ConsolidateMode {
    /// Parse a `--consolidate=` flag value. `None` for unknown values.
    pub fn from_flag(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ConsolidateMode::Off),
            "warp" => Some(ConsolidateMode::Warp),
            "block" => Some(ConsolidateMode::Block),
            "grid" => Some(ConsolidateMode::Grid),
            "auto" => Some(ConsolidateMode::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for ConsolidateMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConsolidateMode::Off => "off",
            ConsolidateMode::Warp => "warp",
            ConsolidateMode::Block => "block",
            ConsolidateMode::Grid => "grid",
            ConsolidateMode::Auto => "auto",
        })
    }
}

/// Counters for one consolidation run, drained into
/// [`crate::SimStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ConsStats {
    /// Sibling groups merged into consolidated grids.
    pub groups: u64,
    /// Grids merged away (group members beyond each anchor).
    pub merged: u64,
    /// Leaf grids inlined as serial work in the launching thread.
    pub inlined: u64,
}

/// Effective aggregation scope for one parent grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gran {
    Warp,
    Block,
    Grid,
}

/// What the pass decided for each recorded grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Keep,
    /// Removed; its work ran serially in the launching thread.
    Inline,
    /// First member of a merged group; absorbs the others' blocks.
    Anchor,
    /// Merged into the anchor (old grid id).
    MergeInto(usize),
}

/// Where a device grid's launch entry lives: parent grid, block, barrier
/// segment, and cycle offset from segment start.
#[derive(Debug, Clone, Copy)]
struct Site {
    parent: usize,
    block: u32,
    seg: usize,
    off: f64,
}

/// Sort key for sibling groups. Name + block shape make members
/// interchangeable under block concatenation; `scope` encodes the
/// granularity (warp/block/segment ids, zero-padded). Stream slots are
/// deliberately *not* part of the key: consolidation subsumes the
/// launch-into-many-streams idiom by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupKey {
    scope: (u32, u32, u32),
    name: Arc<str>,
    block_dim: u32,
    smem: u32,
}

// Hand-written so the whole ordering goes through `Ord::cmp` (the derive
// would route through `partial_cmp`, which the workspace determinism lint
// bans outright).
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.scope, &self.name, self.block_dim, self.smem).cmp(&(
            other.scope,
            &other.name,
            other.block_dim,
            other.smem,
        ))
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Plan {
    anchor: usize,
    members: Vec<usize>,
    /// Consolidated launch offset: the latest member launch in the
    /// anchor's segment (the buffered-then-launch point of the compiler
    /// transform).
    off: f64,
}

/// Apply the configured consolidation transforms to the recorded grid
/// list in place. Returns the counters for [`crate::SimStats`].
pub(crate) fn consolidate(
    grids: &mut Vec<GridTask>,
    device: &DeviceConfig,
    metrics: &BTreeMap<String, KernelMetrics>,
) -> ConsStats {
    let mut stats = ConsStats::default();
    if device.consolidate == ConsolidateMode::Off || grids.is_empty() {
        return stats;
    }
    let n = grids.len();

    // Locate each device grid's launch entry. Launch-bearing blocks are
    // never memo-replayed, so every entry carries a real grid id.
    let mut site: Vec<Option<Site>> = vec![None; n];
    for (p, task) in grids.iter().enumerate() {
        for (b, blk) in task.blocks.iter().enumerate() {
            for (s, segm) in blk.segments.iter().enumerate() {
                for &(child, off) in &segm.launches {
                    site[child as usize] = Some(Site {
                        parent: p,
                        block: b as u32,
                        seg: s,
                        off,
                    });
                }
            }
        }
    }

    // Phase 1 — threshold inlining: a childless grid at or below the
    // threshold runs serially in the launching thread. Its total warp
    // work lands in the launching segment (span and work — one thread
    // executes it), later launches in that segment shift past it, and
    // the launch entry disappears with the grid. The launch-issue cost
    // already charged to the parent trace stands in for the transform's
    // residual buffer-write cost.
    let threshold = u64::from(device.consolidate_inline_threshold);
    let mut fate = vec![Fate::Keep; n];
    for c in 0..n {
        let Some(s) = site[c] else { continue };
        if !grids[c].children.is_empty() || grids[c].cfg.total_threads() > threshold {
            continue;
        }
        let w: f64 = grids[c]
            .blocks
            .iter()
            .flat_map(|b| b.segments.iter().map(|sg| sg.work))
            .sum();
        let segm = &mut grids[s.parent].blocks[s.block as usize].segments[s.seg];
        segm.launches.retain(|&(id, _)| id as usize != c);
        for l in &mut segm.launches {
            if l.1 >= s.off {
                l.1 += w;
                if let Some(ls) = site[l.0 as usize].as_mut() {
                    ls.off = l.1;
                }
            }
        }
        segm.span += w;
        segm.work += w;
        fate[c] = Fate::Inline;
        stats.inlined += 1;
    }

    // Phase 2 — sibling aggregation. Plans are built from an immutable
    // scan; the rebuild below applies them.
    let has_wait: Vec<bool> = grids
        .iter()
        .map(|t| {
            t.blocks
                .iter()
                .any(|b| b.segments.iter().any(|s| s.wait_children))
        })
        .collect();
    let mut plans: Vec<Plan> = Vec::new();
    for p in 0..n {
        let kids: Vec<usize> = grids[p]
            .children
            .iter()
            .copied()
            .filter(|&c| fate[c] == Fate::Keep && site[c].is_some())
            .collect();
        if kids.len() < 2 {
            continue;
        }
        let gran = match device.consolidate {
            ConsolidateMode::Off => unreachable!("checked above"),
            ConsolidateMode::Warp => Gran::Warp,
            ConsolidateMode::Block => Gran::Block,
            ConsolidateMode::Grid => {
                if has_wait[p] {
                    Gran::Block
                } else {
                    Gran::Grid
                }
            }
            ConsolidateMode::Auto => {
                match auto_gran(p, &kids, grids, device, metrics, has_wait[p]) {
                    Some(g) => g,
                    None => continue,
                }
            }
        };
        let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
        for &c in &kids {
            let s = site[c].expect("kids filtered on site");
            let Origin::Device { thread, .. } = grids[c].origin else {
                continue;
            };
            let scope = match gran {
                Gran::Warp => (s.block, thread / device.warp_size, s.seg as u32),
                Gran::Block => (s.block, s.seg as u32, 0),
                Gran::Grid => (0, 0, 0),
            };
            groups
                .entry(GroupKey {
                    scope,
                    name: grids[c].name.clone(),
                    block_dim: grids[c].cfg.block_dim,
                    smem: grids[c].cfg.shared_mem_bytes,
                })
                .or_default()
                .push(c);
        }
        for members in groups.into_values() {
            // Members arrive in launch (grid-id) order. Greedily chunk so
            // a consolidated grid never exceeds the device's grid-dim cap.
            let mut start = 0;
            while start < members.len() {
                let mut dim: u64 = 0;
                let mut end = start;
                while end < members.len() {
                    let next = dim + u64::from(grids[members[end]].cfg.grid_dim);
                    if end > start && next > u64::from(device.max_grid_dim) {
                        break;
                    }
                    dim = next;
                    end += 1;
                }
                if end - start >= 2 {
                    let chunk = &members[start..end];
                    let anchor = chunk[0];
                    let sa = site[anchor].expect("anchor has a site");
                    let mut off = sa.off;
                    for &m in chunk {
                        let sm = site[m].expect("member has a site");
                        if sm.parent == sa.parent && sm.block == sa.block && sm.seg == sa.seg {
                            off = off.max(sm.off);
                        }
                    }
                    fate[anchor] = Fate::Anchor;
                    for &m in &chunk[1..] {
                        fate[m] = Fate::MergeInto(anchor);
                    }
                    stats.groups += 1;
                    stats.merged += (chunk.len() - 1) as u64;
                    plans.push(Plan {
                        anchor,
                        members: chunk.to_vec(),
                        off,
                    });
                }
                start = end;
            }
        }
    }

    if stats.inlined == 0 && stats.merged == 0 {
        return stats;
    }

    // Rebuild: renumber survivors in original (launch) order, so relative
    // ordering — and the parent-id < child-id invariant — is preserved.
    let mut new_id: Vec<usize> = vec![usize::MAX; n];
    let mut next = 0usize;
    for g in 0..n {
        if matches!(fate[g], Fate::Keep | Fate::Anchor) {
            new_id[g] = next;
            next += 1;
        }
    }
    // A merged member's grid id and origin block forward to its position
    // inside the anchor: (anchor old id, block offset of the member).
    let mut shift: Vec<(usize, u32)> = (0..n).map(|g| (g, 0)).collect();
    let mut anchor_off: BTreeMap<usize, f64> = BTreeMap::new();
    for plan in &plans {
        let mut boff = 0u32;
        for &m in &plan.members {
            shift[m] = (plan.anchor, boff);
            boff += grids[m].blocks.len() as u32;
        }
        anchor_off.insert(plan.anchor, plan.off);
    }

    let mut old: Vec<Option<GridTask>> = std::mem::take(grids).into_iter().map(Some).collect();
    // Fold each group's blocks and children into its anchor (member-id
    // order — the flattened-index remap).
    for plan in &plans {
        let mut blocks = Vec::new();
        let mut kids: Vec<usize> = Vec::new();
        let mut dim: u64 = 0;
        for &m in &plan.members {
            let t = old[m].as_mut().expect("member not yet consumed");
            blocks.append(&mut t.blocks);
            kids.append(&mut t.children);
            dim += u64::from(t.cfg.grid_dim);
        }
        let a = old[plan.anchor].as_mut().expect("anchor not yet consumed");
        a.blocks = blocks;
        a.children = kids;
        a.cfg.grid_dim = u32::try_from(dim).expect("chunking caps at max_grid_dim");
    }

    let mut out: Vec<GridTask> = Vec::with_capacity(next);
    for g in 0..n {
        if !matches!(fate[g], Fate::Keep | Fate::Anchor) {
            continue;
        }
        let mut task = old[g].take().expect("survivor not yet consumed");
        // Children: drop inlined ids, forward merged ids to their anchor,
        // renumber, and dedup (a group contributes one completion).
        let mut kids: Vec<usize> = task
            .children
            .iter()
            .filter_map(|&c| match fate[c] {
                Fate::Inline => None,
                Fate::MergeInto(a) => Some(new_id[a]),
                _ => Some(new_id[c]),
            })
            .collect();
        kids.sort_unstable();
        kids.dedup();
        task.children = kids;
        // Origin: renumber the parent id; a grid whose parent merged away
        // now originates from the anchor, at its member's block offset.
        if let Origin::Device { parent, block, .. } = &mut task.origin {
            let (target, boff) = shift[*parent];
            *parent = new_id[target];
            *block += boff;
        }
        // Launch entries: merged members' entries vanish with their grids;
        // an anchor's entry moves to the group's consolidated offset.
        for blk in &mut task.blocks {
            for segm in &mut blk.segments {
                segm.launches.retain(|&(c, _)| {
                    !matches!(fate[c as usize], Fate::Inline | Fate::MergeInto(_))
                });
                for l in &mut segm.launches {
                    let c = l.0 as usize;
                    if let Some(&off) = anchor_off.get(&c) {
                        l.1 = off;
                    }
                    l.0 = u32::try_from(new_id[c]).expect("grid id overflow");
                }
            }
        }
        out.push(task);
    }
    *grids = out;
    stats
}

/// The `auto` policy for one parent grid: consult the measured
/// launch-stall share (npar-prof) and the spawned shape (the same facts
/// npar-analyze's `LaunchShape` distills) to pick a granularity, or
/// `None` to leave the site untransformed.
fn auto_gran(
    p: usize,
    kids: &[usize],
    grids: &[GridTask],
    device: &DeviceConfig,
    metrics: &BTreeMap<String, KernelMetrics>,
    has_wait: bool,
) -> Option<Gran> {
    let m = metrics.get(&*grids[p].name)?;
    // No measured launch pressure on this kernel: nothing to win.
    if m.stalls.launch <= 0.0 {
        return None;
    }
    let total: u64 = kids.iter().map(|&c| grids[c].cfg.total_threads()).sum();
    let mean = total / kids.len() as u64;
    if mean > u64::from(device.max_threads_per_block) {
        // Children are already big grids; merge conservatively so the
        // consolidated grid stays near the siblings' natural wave size.
        Some(Gran::Warp)
    } else if has_wait {
        Some(Gran::Block)
    } else {
        Some(Gran::Grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockOutcome, SegmentTask};
    use crate::cost::CostModel;
    use crate::kernel::LaunchConfig;
    use crate::sched::simulate_full;

    fn seg(span: f64, work: f64) -> SegmentTask {
        SegmentTask {
            span,
            work,
            wait_children: false,
            launches: Vec::new(),
        }
    }

    fn block(warps: u32, segments: Vec<SegmentTask>) -> BlockOutcome {
        BlockOutcome {
            warps,
            segments,
            replayed: false,
        }
    }

    fn grid(origin: Origin, cfg: LaunchConfig, blocks: Vec<BlockOutcome>) -> GridTask {
        GridTask {
            name: "child".into(),
            class: 0,
            cfg,
            origin,
            depth: u32::from(matches!(origin, Origin::Device { .. })),
            blocks,
            children: Vec::new(),
        }
    }

    fn dev(parent: usize, blk: u32, thread: u32) -> Origin {
        Origin::Device {
            parent,
            block: blk,
            stream_slot: 0,
            thread,
        }
    }

    /// A host parent whose single block launches `n` children from the
    /// given thread ids, plus the children (one 128-thread block each, so
    /// the default inline threshold leaves them alone).
    fn storm(threads: &[u32]) -> Vec<GridTask> {
        let launches: Vec<(u32, f64)> = (0..threads.len())
            .map(|i| (i as u32 + 1, 5.0 + i as f64))
            .collect();
        let mut parent = grid(
            Origin::Host { seq: 0, stream: 0 },
            LaunchConfig::new(1, 32),
            vec![block(
                1,
                vec![SegmentTask {
                    span: 40.0,
                    work: 40.0,
                    wait_children: false,
                    launches,
                }],
            )],
        );
        parent.name = "parent".into();
        parent.depth = 0;
        parent.children = (1..=threads.len()).collect();
        let mut grids = vec![parent];
        for (i, &t) in threads.iter().enumerate() {
            grids.push(grid(
                dev(0, 0, t),
                LaunchConfig::new(1, 128),
                vec![block(4, vec![seg(100.0, 400.0)])],
            ));
            let _ = i;
        }
        grids
    }

    fn device_with(mode: ConsolidateMode) -> DeviceConfig {
        let mut d = DeviceConfig::tiny();
        d.consolidate = mode;
        d
    }

    #[test]
    fn mode_flag_roundtrip() {
        for mode in [
            ConsolidateMode::Off,
            ConsolidateMode::Warp,
            ConsolidateMode::Block,
            ConsolidateMode::Grid,
            ConsolidateMode::Auto,
        ] {
            assert_eq!(ConsolidateMode::from_flag(&mode.to_string()), Some(mode));
        }
        assert_eq!(ConsolidateMode::from_flag("both"), None);
        assert_eq!(ConsolidateMode::from_flag(""), None);
    }

    #[test]
    fn off_mode_is_identity() {
        let mut grids = storm(&[0, 1, 2]);
        let stats = consolidate(
            &mut grids,
            &device_with(ConsolidateMode::Off),
            &BTreeMap::new(),
        );
        assert_eq!(stats, ConsStats::default());
        assert_eq!(grids.len(), 4);
    }

    #[test]
    fn block_mode_merges_siblings_and_keeps_accounting() {
        let mut grids = storm(&[0, 1, 40]);
        let stats = consolidate(
            &mut grids,
            &device_with(ConsolidateMode::Block),
            &BTreeMap::new(),
        );
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.merged, 2);
        assert_eq!(stats.inlined, 0);
        assert_eq!(grids.len(), 2);
        // Parent: one child, one launch entry, at the latest member site.
        assert_eq!(grids[0].children, vec![1]);
        let launches = &grids[0].blocks[0].segments[0].launches;
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].0, 1);
        assert!((launches[0].1 - 7.0).abs() < 1e-12);
        // Consolidated grid: flattened blocks, summed grid dim, anchor
        // origin.
        assert_eq!(grids[1].cfg.grid_dim, 3);
        assert_eq!(grids[1].cfg.block_dim, 128);
        assert_eq!(grids[1].blocks.len(), 3);
        assert_eq!(grids[1].origin, dev(0, 0, 0));
    }

    #[test]
    fn warp_mode_groups_by_launching_warp() {
        // Threads 0 and 1 share warp 0; thread 40 is warp 1 — so one
        // two-member group merges and the third child stays.
        let mut grids = storm(&[0, 1, 40]);
        let stats = consolidate(
            &mut grids,
            &device_with(ConsolidateMode::Warp),
            &BTreeMap::new(),
        );
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.merged, 1);
        assert_eq!(grids.len(), 3);
        assert_eq!(grids[0].children, vec![1, 2]);
        assert_eq!(grids[1].cfg.grid_dim, 2);
        assert_eq!(grids[2].cfg.grid_dim, 1);
        let launches = &grids[0].blocks[0].segments[0].launches;
        assert_eq!(launches.len(), 2);
    }

    #[test]
    fn threshold_inlines_small_leaves() {
        let mut grids = storm(&[0, 1]);
        // Shrink the children below the 64-thread threshold.
        for g in &mut grids[1..] {
            g.cfg = LaunchConfig::new(1, 32);
            g.blocks = vec![block(1, vec![seg(50.0, 200.0)])];
        }
        let stats = consolidate(
            &mut grids,
            &device_with(ConsolidateMode::Block),
            &BTreeMap::new(),
        );
        assert_eq!(stats.inlined, 2);
        assert_eq!(stats.merged, 0);
        assert_eq!(grids.len(), 1);
        assert!(grids[0].children.is_empty());
        let segm = &grids[0].blocks[0].segments[0];
        assert!(segm.launches.is_empty());
        // Both children's work (200 each) ran serially in the parent.
        assert!((segm.span - 440.0).abs() < 1e-12);
        assert!((segm.work - 440.0).abs() < 1e-12);
    }

    #[test]
    fn grid_mode_degrades_to_block_under_joins() {
        // Two parent blocks launch one child each; the parent joins them.
        // Grid granularity would merge across blocks and unbalance the
        // per-block join accounting, so nothing merges.
        let mk = |wait| {
            let mut parent = grid(
                Origin::Host { seq: 0, stream: 0 },
                LaunchConfig::new(2, 32),
                (0..2u32)
                    .map(|b| {
                        let mut segs = vec![SegmentTask {
                            span: 40.0,
                            work: 40.0,
                            wait_children: false,
                            launches: vec![(b + 1, 5.0)],
                        }];
                        if wait {
                            segs.push(SegmentTask {
                                span: 10.0,
                                work: 10.0,
                                wait_children: true,
                                launches: Vec::new(),
                            });
                        }
                        block(1, segs)
                    })
                    .collect(),
            );
            parent.children = vec![1, 2];
            let mut grids = vec![parent];
            for b in 0..2 {
                grids.push(grid(
                    dev(0, b, 0),
                    LaunchConfig::new(1, 128),
                    vec![block(4, vec![seg(100.0, 400.0)])],
                ));
            }
            grids
        };
        let mut joined = mk(true);
        let s_joined = consolidate(
            &mut joined,
            &device_with(ConsolidateMode::Grid),
            &BTreeMap::new(),
        );
        assert_eq!(
            s_joined.merged, 0,
            "join parents must not merge cross-block"
        );
        assert_eq!(joined.len(), 3);

        let mut free = mk(false);
        let s_free = consolidate(
            &mut free,
            &device_with(ConsolidateMode::Grid),
            &BTreeMap::new(),
        );
        assert_eq!(s_free.merged, 1);
        assert_eq!(free.len(), 2);
        // The merged grid anchors at block 0's launch; block 1's entry is
        // gone and the second member's origin block flattened away with it.
        assert_eq!(free[0].blocks[0].segments[0].launches.len(), 1);
        assert!(free[0].blocks[1].segments[0].launches.is_empty());
        assert_eq!(free[1].blocks.len(), 2);
    }

    #[test]
    fn grandchildren_follow_their_merged_parent() {
        // Children 1 and 2 merge; child 2's grandchild (grid 3) must end
        // up owned by the consolidated grid at the shifted block index.
        let mut grids = storm(&[0, 1]);
        grids[2].children = vec![3];
        grids[2].blocks[0].segments[0].launches.push((3, 50.0));
        grids.push(grid(
            dev(2, 0, 0),
            LaunchConfig::new(1, 128),
            vec![block(4, vec![seg(10.0, 40.0)])],
        ));
        let stats = consolidate(
            &mut grids,
            &device_with(ConsolidateMode::Block),
            &BTreeMap::new(),
        );
        assert_eq!(stats.merged, 1);
        assert_eq!(grids.len(), 3);
        // Consolidated child grid (new id 1) owns the grandchild.
        assert_eq!(grids[1].children, vec![2]);
        // The grandchild's origin forwards to the anchor, block offset 1
        // (the anchor contributed one block).
        assert_eq!(grids[2].origin, dev(1, 1, 0));
        // And the launch entry in the moved block was renumbered.
        assert_eq!(grids[1].blocks[1].segments[0].launches, vec![(2, 50.0)]);
    }

    #[test]
    fn consolidation_cuts_modeled_time_on_launch_storms() {
        let threads: Vec<u32> = (0..8).collect();
        let naive = storm(&threads);
        let mut cons = storm(&threads);
        let d = device_with(ConsolidateMode::Block);
        let stats = consolidate(&mut cons, &d, &BTreeMap::new());
        assert_eq!(stats.merged, 7);
        let c = CostModel::default();
        let (t_naive, _) = simulate_full(&naive, &d, &c, None, None);
        let (t_cons, _) = simulate_full(&cons, &d, &c, None, None);
        assert!(
            t_cons.makespan < t_naive.makespan,
            "consolidated {} !< naive {}",
            t_cons.makespan,
            t_naive.makespan
        );
    }

    #[test]
    fn auto_mode_requires_measured_launch_stalls() {
        let mut grids = storm(&[0, 1, 2]);
        // No metrics for the parent kernel: auto leaves the site alone.
        let stats = consolidate(
            &mut grids,
            &device_with(ConsolidateMode::Auto),
            &BTreeMap::new(),
        );
        assert_eq!(stats.merged, 0);
        assert_eq!(grids.len(), 4);

        let mut metrics = BTreeMap::new();
        let mut m = KernelMetrics::default();
        m.stalls.launch = 1_000.0;
        m.work_cycles = 10_000.0;
        metrics.insert("parent".to_string(), m);
        let mut grids = storm(&[0, 1, 2]);
        let stats = consolidate(&mut grids, &device_with(ConsolidateMode::Auto), &metrics);
        // Join-free parent with small children: per-grid consolidation.
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.merged, 2);
        assert_eq!(grids.len(), 2);
    }
}
