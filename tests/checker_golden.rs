//! Golden output of npar-check: the full `CheckReport` text (kind, kernel,
//! grid, block, details, order, suppressed and scan counts) for a fixed set
//! of racy kernels, pinned against `tests/golden/checker_reports.txt`.
//!
//! The corpus exceeds every recording cap (8 cross-block pairs per grid, 4
//! shared races per barrier segment, 64 stored hazards per report), mixes
//! read, write and atomic conflicts on elements that straddle 128-byte
//! lines, races in shared memory across several barrier segments (in and
//! beyond the declared shared size), and triggers the shared-bounds and
//! unjoined-child-read diagnostics. A seeded random section covers
//! combinations no hand-written case names. Any change to what the checker
//! reports, or in which order, fails here with the first differing line.

use std::rc::Rc;

use npar::sim::{
    BlockCtx, CheckLevel, GBuf, Gpu, Kernel, KernelRef, LaunchConfig, Stream, ThreadCtx,
    ThreadKernel,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const GOLDEN: &str = include_str!("golden/checker_reports.txt");

/// Which global buffer an access targets. Element sizes 1, 4, 8, 12 and
/// 200 bytes: the 12- and 200-byte elements straddle 128-byte lines, and
/// the zero-sized one issues zero-byte accesses.
#[derive(Clone, Copy, Debug)]
enum Buf {
    B8,
    B32,
    B64,
    B12,
    B200,
    Zst,
}

#[derive(Clone, Copy, Debug)]
enum Act {
    Ld(Buf, usize),
    St(Buf, usize),
    At(Buf, usize),
    SLd(u32),
    SSt(u32),
    SAt(u32),
    Launch,
}

#[derive(Clone, Copy)]
struct Bufs {
    b8: GBuf<u8>,
    b32: GBuf<u32>,
    b64: GBuf<u64>,
    b12: GBuf<[u8; 12]>,
    b200: GBuf<[u8; 200]>,
    zst: GBuf<()>,
}

const B8_LEN: usize = 512;
const B32_LEN: usize = 256;
const B64_LEN: usize = 128;
const B12_LEN: usize = 64;
const B200_LEN: usize = 8;
const ZST_LEN: usize = 16;

impl Bufs {
    fn alloc(gpu: &mut Gpu) -> Self {
        Bufs {
            b8: gpu.alloc(B8_LEN),
            b32: gpu.alloc(B32_LEN),
            b64: gpu.alloc(B64_LEN),
            b12: gpu.alloc(B12_LEN),
            b200: gpu.alloc(B200_LEN),
            zst: gpu.alloc(ZST_LEN),
        }
    }
}

/// One block's plan: `segs[s][lane]` lists the lane's actions in barrier
/// segment `s`; `joins[s]` picks `sync_children` (else `sync`) for the
/// barrier closing segment `s`.
#[derive(Clone, Default)]
struct BlockPlan {
    segs: Vec<Vec<Vec<Act>>>,
    joins: Vec<bool>,
}

/// Replays a per-block plan; block `b` runs `blocks[b % blocks.len()]`.
struct Script {
    name: &'static str,
    blocks: Vec<BlockPlan>,
    bufs: Bufs,
    child: KernelRef,
}

impl Script {
    fn apply(&self, t: &mut ThreadCtx<'_, '_>, act: Act) {
        macro_rules! access {
            ($kind:expr, $buf:expr, $i:expr) => {{
                let b = &self.bufs;
                match $buf {
                    Buf::B8 => $kind(t, &b.b8, $i),
                    Buf::B32 => $kind(t, &b.b32, $i),
                    Buf::B64 => $kind(t, &b.b64, $i),
                    Buf::B12 => $kind(t, &b.b12, $i),
                    Buf::B200 => $kind(t, &b.b200, $i),
                    Buf::Zst => $kind(t, &b.zst, $i),
                }
            }};
        }
        fn ld<T>(t: &mut ThreadCtx<'_, '_>, b: &GBuf<T>, i: usize) {
            t.ld(b, i)
        }
        fn st<T>(t: &mut ThreadCtx<'_, '_>, b: &GBuf<T>, i: usize) {
            t.st(b, i)
        }
        fn at<T>(t: &mut ThreadCtx<'_, '_>, b: &GBuf<T>, i: usize) {
            t.atomic(b, i)
        }
        match act {
            Act::Ld(buf, i) => access!(ld, buf, i),
            Act::St(buf, i) => access!(st, buf, i),
            Act::At(buf, i) => access!(at, buf, i),
            Act::SLd(a) => t.shared_ld(a),
            Act::SSt(a) => t.shared_st(a),
            Act::SAt(a) => t.shared_atomic(a),
            Act::Launch => t.launch(&self.child, LaunchConfig::new(1, 32), Stream::Default),
        }
    }
}

impl Kernel for Script {
    fn name(&self) -> &str {
        self.name
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let plan = &self.blocks[blk.block_idx() as usize % self.blocks.len()];
        for (s, seg) in plan.segs.iter().enumerate() {
            if s > 0 {
                if plan.joins[s - 1] {
                    blk.sync_children();
                } else {
                    blk.sync();
                }
            }
            blk.for_each_thread(|t| {
                if let Some(acts) = seg.get(t.thread_idx() as usize) {
                    for &a in acts {
                        self.apply(t, a);
                    }
                }
            });
        }
    }
}

/// Child grid: thread `i` plainly writes `b32[i]` and `b8[i]`.
struct ChildWriter {
    bufs: Bufs,
}
impl ThreadKernel for ChildWriter {
    fn name(&self) -> &str {
        "golden-child"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        t.st(&self.bufs.b32, i);
        t.st(&self.bufs.b8, i);
    }
}

/// A block plan with `lanes` lanes and a single segment, built lane by lane.
fn one_segment(lanes: usize, f: impl Fn(usize) -> Vec<Act>) -> BlockPlan {
    BlockPlan {
        segs: vec![(0..lanes).map(f).collect()],
        joins: Vec::new(),
    }
}

/// Run `blocks` as one grid of `grid` blocks under `Warn` and render the
/// drained report (plus the synchronize's hazard count).
fn run_case(
    title: &str,
    name: &'static str,
    grid: u32,
    block: u32,
    shared: u32,
    blocks: Vec<BlockPlan>,
) -> String {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Warn);
    let bufs = Bufs::alloc(&mut gpu);
    let child: KernelRef = Rc::new(ChildWriter { bufs });
    let k = Script {
        name,
        blocks,
        bufs,
        child,
    };
    gpu.launch(Rc::new(k), LaunchConfig::with_shared(grid, block, shared))
        .expect("Warn records hazards without failing the launch");
    let counted = gpu.synchronize().hazards;
    let report = gpu.take_check_report();
    format!(
        "== {title} (synchronize counted {counted}, suppressed {})\n{report}",
        report.suppressed
    )
}

/// Every block writes `b32[0]` and reads `b32[1]`: 66 racing block pairs,
/// of which the grid records the first 8.
fn global_cap() -> String {
    let plan = one_segment(32, |lane| match lane {
        0 => vec![Act::St(Buf::B32, 0), Act::Ld(Buf::B32, 1)],
        1 => vec![Act::Ld(Buf::B32, 1)],
        _ => Vec::new(),
    });
    run_case("global cap", "golden-global-cap", 12, 32, 0, vec![plan])
}

/// Read/write/atomic mixes on straddling and adjacent elements.
fn mixed_global() -> String {
    let blocks = vec![
        // Block 0: reads a run of straddling 12-byte elements, writes b8
        // bytes 0..4, atomics on b64[3], and zero-byte writes.
        one_segment(8, |lane| match lane {
            0 => vec![
                Act::Ld(Buf::B12, 9),
                Act::Ld(Buf::B12, 10),
                Act::St(Buf::B8, 0),
            ],
            1 => vec![
                Act::Ld(Buf::B12, 11),
                Act::St(Buf::B8, 1),
                Act::At(Buf::B64, 3),
            ],
            2 => vec![
                Act::St(Buf::B8, 2),
                Act::St(Buf::B8, 3),
                Act::St(Buf::Zst, 4),
            ],
            3 => vec![Act::Ld(Buf::B200, 0), Act::At(Buf::B32, 7)],
            _ => Vec::new(),
        }),
        // Block 1: writes element 10 of b12 (straddles bytes 120..132),
        // atomics on the b8 bytes block 0 wrote, reads b64[3].
        one_segment(8, |lane| match lane {
            0 => vec![Act::St(Buf::B12, 10)],
            1 => vec![Act::At(Buf::B8, 2), Act::Ld(Buf::B64, 3)],
            2 => vec![Act::St(Buf::Zst, 4), Act::Ld(Buf::Zst, 9)],
            _ => Vec::new(),
        }),
        // Block 2: writes b8 byte 4 (adjacent to block 0's bytes, no
        // overlap), writes b200[0] (three lines), atomics on b32[7].
        one_segment(8, |lane| match lane {
            0 => vec![Act::St(Buf::B8, 4), Act::St(Buf::B200, 0)],
            1 => vec![Act::At(Buf::B32, 7), Act::At(Buf::B32, 8)],
            _ => Vec::new(),
        }),
        // Block 3: writes b64[3] (against block 0's atomic and block 1's
        // read) and reads b8 bytes 3..5.
        one_segment(8, |lane| match lane {
            0 => vec![Act::St(Buf::B64, 3)],
            1 => vec![Act::Ld(Buf::B8, 3), Act::Ld(Buf::B8, 4)],
            _ => Vec::new(),
        }),
        // Block 4: race-free against everyone (own b32 range).
        one_segment(8, |lane| vec![Act::St(Buf::B32, 100 + lane)]),
    ];
    run_case("mixed global", "golden-mixed", 5, 8, 0, blocks)
}

/// Shared races in three barrier segments, one segment past the per-segment
/// cap, plus offsets beyond the declared 64 bytes (bounds diagnostic, and
/// races out there too).
fn shared_segments() -> String {
    let lanes = 16;
    let mut plan = BlockPlan {
        segs: vec![vec![Vec::new(); lanes]; 3],
        joins: vec![false, false],
    };
    // Segment 0: a write/write and a read/write race.
    plan.segs[0][0] = vec![Act::SSt(0), Act::SSt(8)];
    plan.segs[0][1] = vec![Act::SSt(0)];
    plan.segs[0][2] = vec![Act::SLd(8)];
    // Segment 1: six conflicting offsets (cap 4), one of them atomic/write,
    // two beyond the declared size.
    for (i, off) in [4u32, 12, 20, 28, 72, 96].into_iter().enumerate() {
        plan.segs[1][i] = vec![Act::SSt(off)];
        plan.segs[1][i + 6] = vec![if i == 2 { Act::SAt(off) } else { Act::SLd(off) }];
    }
    // Segment 2: ordered after the barriers, so only the atomic/atomic pair
    // (sanctioned) and one out-of-bounds write/write race.
    plan.segs[2][3] = vec![Act::SAt(16), Act::SSt(200)];
    plan.segs[2][4] = vec![Act::SAt(16), Act::SSt(200)];
    let mut quiet = plan.clone();
    quiet.segs[1].iter_mut().for_each(Vec::clear);
    run_case(
        "shared segments",
        "golden-shared",
        2,
        lanes as u32,
        64,
        vec![plan, quiet],
    )
}

/// Fire-and-forget launches read back without `sync_children` (linted),
/// next to a block that joins before reading (clean).
fn unjoined() -> String {
    let mut forgetful = BlockPlan {
        segs: vec![vec![Vec::new(); 32]; 2],
        joins: vec![false],
    };
    forgetful.segs[0][0] = vec![Act::Launch, Act::Ld(Buf::B32, 5)];
    forgetful.segs[1][7] = vec![Act::Ld(Buf::B8, 3), Act::Ld(Buf::B32, 40)];
    let mut joined = forgetful.clone();
    joined.joins = vec![true];
    joined.segs[0][0] = vec![Act::Launch];
    let mut late = forgetful.clone();
    // Reads only memory the child never writes: no lint fires.
    late.segs[0][0] = vec![Act::Launch, Act::Ld(Buf::B64, 0)];
    late.segs[1][7] = vec![Act::Ld(Buf::B64, 1)];
    run_case(
        "unjoined child reads",
        "golden-unjoined",
        3,
        32,
        0,
        vec![forgetful, joined, late],
    )
}

/// Twenty blocks of eight shared races each: 160 detections, 64 stored.
fn hazard_cap() -> String {
    let lanes = 8;
    let mut plan = BlockPlan {
        segs: vec![vec![Vec::new(); lanes]; 2],
        joins: vec![false],
    };
    for seg in 0..2 {
        for i in 0..5u32 {
            plan.segs[seg][0].push(Act::SSt(i * 4));
            plan.segs[seg][1].push(Act::SLd(i * 4));
        }
    }
    run_case(
        "hazard cap",
        "golden-hazard-cap",
        20,
        lanes as u32,
        64,
        vec![plan],
    )
}

/// A random action over every buffer, shared offsets in and beyond a
/// 96-byte declaration, and (rarely) a launch.
fn random_act(rng: &mut ChaCha8Rng) -> Act {
    let buf_idx = |rng: &mut ChaCha8Rng| -> (Buf, usize) {
        match rng.gen_range(0u32..6) {
            0 => (Buf::B8, rng.gen_range(0usize..24)),
            1 => (Buf::B32, rng.gen_range(0usize..16)),
            2 => (Buf::B64, rng.gen_range(0usize..8)),
            3 => (Buf::B12, rng.gen_range(0usize..16)),
            4 => (Buf::B200, rng.gen_range(0usize..3)),
            _ => (Buf::Zst, rng.gen_range(0usize..4)),
        }
    };
    match rng.gen_range(0u32..20) {
        0..=4 => {
            let (b, i) = buf_idx(rng);
            Act::Ld(b, i)
        }
        5..=7 => {
            let (b, i) = buf_idx(rng);
            Act::St(b, i)
        }
        8..=9 => {
            let (b, i) = buf_idx(rng);
            Act::At(b, i)
        }
        10..=12 => Act::SLd(rng.gen_range(0u32..32) * 4),
        13..=15 => Act::SSt(rng.gen_range(0u32..32) * 4),
        16..=18 => Act::SAt(rng.gen_range(0u32..32) * 4),
        _ => Act::Launch,
    }
}

fn random_cases() -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d);
    let mut out = String::new();
    for case in 0..12 {
        let lanes = [4usize, 8, 16, 33][rng.gen_range(0usize..4)];
        let grid = rng.gen_range(1u32..7);
        let blocks: Vec<BlockPlan> = (0..rng.gen_range(1usize..4))
            .map(|_| {
                let nsegs = rng.gen_range(1usize..4);
                BlockPlan {
                    segs: (0..nsegs)
                        .map(|_| {
                            (0..lanes)
                                .map(|_| {
                                    (0..rng.gen_range(0usize..4))
                                        .map(|_| random_act(&mut rng))
                                        .collect()
                                })
                                .collect()
                        })
                        .collect(),
                    joins: (1..nsegs).map(|_| rng.gen_range(0u32..3) == 0).collect(),
                }
            })
            .collect();
        out += &run_case(
            &format!("random case {case}"),
            "golden-random",
            grid,
            lanes as u32,
            96,
            blocks,
        );
    }
    out
}

fn render_all() -> String {
    [
        global_cap(),
        mixed_global(),
        shared_segments(),
        unjoined(),
        hazard_cap(),
        random_cases(),
    ]
    .concat()
}

#[test]
fn check_reports_match_the_golden_corpus() {
    let got = render_all();
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "checker output differs from tests/golden/checker_reports.txt at line {}:\n  \
             got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
