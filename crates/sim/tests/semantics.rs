//! Public-API semantics of the simulator: deferred child execution,
//! parent/child joins, stream behaviour and the profiling surface.

use std::cell::RefCell;
use std::rc::Rc;

use npar_sim::{
    BlockCtx, CostModel, DeviceConfig, Gpu, Kernel, KernelRef, LaunchConfig, Stream, ThreadCtx,
    ThreadKernel,
};

/// Child kernel that appends a tag to a shared log.
struct Tag {
    log: Rc<RefCell<Vec<&'static str>>>,
    tag: &'static str,
}
impl ThreadKernel for Tag {
    fn name(&self) -> &str {
        "tag"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        if t.global_id() == 0 {
            self.log.borrow_mut().push(self.tag);
        }
        t.compute(1);
    }
}

/// Parent that launches a child and logs around the launch, optionally
/// joining it.
struct Parent {
    log: Rc<RefCell<Vec<&'static str>>>,
    join: bool,
}
impl Kernel for Parent {
    fn name(&self) -> &str {
        "parent"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let log = Rc::clone(&self.log);
        let child: KernelRef = Rc::new(Tag {
            log: Rc::clone(&self.log),
            tag: "child",
        });
        blk.for_each_thread(|t| {
            if t.is_leader() {
                log.borrow_mut().push("before-launch");
                t.launch(&child, LaunchConfig::new(1, 32), Stream::Default);
                log.borrow_mut().push("after-launch");
            }
        });
        if self.join {
            blk.sync_children();
            blk.for_each_thread(|t| {
                if t.is_leader() {
                    log.borrow_mut().push("after-join");
                }
            });
        }
    }
}

#[test]
fn children_are_deferred_until_join() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut gpu = Gpu::k20();
    gpu.launch(
        Rc::new(Parent {
            log: Rc::clone(&log),
            join: true,
        }),
        LaunchConfig::new(1, 32),
    )
    .unwrap();
    gpu.synchronize();
    assert_eq!(
        *log.borrow(),
        vec!["before-launch", "after-launch", "child", "after-join"],
        "child must run at the join, not at the launch point"
    );
}

#[test]
fn fire_and_forget_children_run_by_grid_completion() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut gpu = Gpu::k20();
    gpu.launch(
        Rc::new(Parent {
            log: Rc::clone(&log),
            join: false,
        }),
        LaunchConfig::new(1, 32),
    )
    .unwrap();
    // The host launch drives the whole descendant tree to completion.
    assert_eq!(
        *log.borrow(),
        vec!["before-launch", "after-launch", "child"]
    );
    let r = gpu.synchronize();
    assert_eq!(r.device_launches, 1);
    assert_eq!(r.host_launches, 1);
}

/// Grand-parent joining a child whose own child must also be complete.
struct Grand {
    log: Rc<RefCell<Vec<&'static str>>>,
}
impl Kernel for Grand {
    fn name(&self) -> &str {
        "grand"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let mid: KernelRef = Rc::new(Mid {
            log: Rc::clone(&self.log),
        });
        blk.for_each_thread(|t| {
            if t.is_leader() {
                t.launch(&mid, LaunchConfig::new(1, 32), Stream::Default);
            }
        });
        blk.sync_children();
        let log = Rc::clone(&self.log);
        blk.for_each_thread(move |t| {
            if t.is_leader() {
                log.borrow_mut().push("grand-after-join");
            }
        });
    }
}
struct Mid {
    log: Rc<RefCell<Vec<&'static str>>>,
}
impl Kernel for Mid {
    fn name(&self) -> &str {
        "mid"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let leaf: KernelRef = Rc::new(Tag {
            log: Rc::clone(&self.log),
            tag: "leaf",
        });
        let log = Rc::clone(&self.log);
        blk.for_each_thread(|t| {
            if t.is_leader() {
                log.borrow_mut().push("mid");
                // Fire-and-forget from the middle kernel.
                t.launch(&leaf, LaunchConfig::new(1, 32), Stream::Default);
            }
        });
    }
}

#[test]
fn join_covers_the_whole_subtree() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut gpu = Gpu::k20();
    gpu.launch(
        Rc::new(Grand {
            log: Rc::clone(&log),
        }),
        LaunchConfig::new(1, 32),
    )
    .unwrap();
    gpu.synchronize();
    assert_eq!(
        *log.borrow(),
        vec!["mid", "leaf", "grand-after-join"],
        "a parent's join must also cover its grandchildren"
    );
}

/// One warp of divergent trip counts for metric surface checks.
struct Skewed;
impl ThreadKernel for Skewed {
    fn name(&self) -> &str {
        "skewed"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.compute(1 + t.thread_idx() * 4);
    }
}

#[test]
fn divergence_shows_in_public_metrics() {
    let mut gpu = Gpu::k20();
    gpu.launch(Rc::new(Skewed), LaunchConfig::new(1, 32))
        .unwrap();
    let r = gpu.synchronize();
    let eff = r.total().warp_execution_efficiency();
    assert!(
        eff > 0.3 && eff < 0.7,
        "triangular skew should land mid-range, got {eff}"
    );
}

#[test]
fn host_streams_overlap_long_kernels() {
    struct Busy;
    impl ThreadKernel for Busy {
        fn name(&self) -> &str {
            "busy"
        }
        fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
            t.compute(200_000);
        }
    }
    let serial = {
        let mut gpu = Gpu::k20();
        gpu.launch(Rc::new(Busy), LaunchConfig::new(1, 32)).unwrap();
        gpu.launch(Rc::new(Busy), LaunchConfig::new(1, 32)).unwrap();
        gpu.synchronize().cycles
    };
    let overlapped = {
        let mut gpu = Gpu::k20();
        gpu.launch_in(Rc::new(Busy), LaunchConfig::new(1, 32), Stream::Slot(0))
            .unwrap();
        gpu.launch_in(Rc::new(Busy), LaunchConfig::new(1, 32), Stream::Slot(1))
            .unwrap();
        gpu.synchronize().cycles
    };
    assert!(
        overlapped < serial * 0.7,
        "streams should overlap: {overlapped} vs {serial}"
    );
}

#[test]
fn cost_model_is_respected() {
    // Doubling ALU cost doubles the time of a compute-only kernel.
    struct Alu;
    impl ThreadKernel for Alu {
        fn name(&self) -> &str {
            "alu"
        }
        fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
            t.compute(100_000);
        }
    }
    let time = |alu: f64| {
        let cost = CostModel {
            alu_cycles: alu,
            host_launch_cycles: 0.000_001,
            ..Default::default()
        };
        let mut gpu = Gpu::new(DeviceConfig::kepler_k20(), cost);
        gpu.launch(Rc::new(Alu), LaunchConfig::new(1, 32)).unwrap();
        gpu.synchronize().cycles
    };
    let one = time(1.0);
    let two = time(2.0);
    assert!((two / one - 2.0).abs() < 0.01, "ratio {}", two / one);
}
