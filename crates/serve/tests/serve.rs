//! Integration tests for the serving layer (ISSUE 8 satellite coverage):
//! persistence round-trip with byte-identical reports, graceful handling of
//! corrupt/truncated spills, and dedupe correctness under concurrent
//! identical submissions at 1/2/8 worker shards.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use npar_serve::{
    cache, workload::Dataset, Request, Response, ServeConfig, Service, Source, SubmitError,
};
use npar_sim::DeviceConfig;

/// Fresh unique temp dir per test case (tests run concurrently in one
/// process; the dir is removed best-effort at the end of each test).
fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "npar-serve-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small request on the tiny device so each test job is cheap.
fn tiny_request(kernel: &str, salt: u64) -> Request {
    Request {
        kernel: kernel.into(),
        device: DeviceConfig::tiny(),
        dataset: Dataset {
            n: 512,
            grid: 2,
            block: 64,
            launches: 2,
            streams: 2,
            salt,
        },
    }
}

fn report_bytes(resp: &Response) -> String {
    match resp {
        Response::Done { report, .. } => {
            serde_json::to_string(&**report).expect("report serializes")
        }
        other => panic!("expected Done, got {other:?}"),
    }
}

fn source_of(resp: &Response) -> Source {
    match resp {
        Response::Done { source, .. } => *source,
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn persistence_round_trip_is_byte_identical() {
    let dir = tmp_dir("roundtrip");
    let cfg = || ServeConfig {
        shards: 2,
        queue_cap: 64,
        timeout: None,
        cache_dir: Some(dir.clone()),
        cold: false,
        gpu_threads: 1,
    };
    let requests: Vec<Request> = vec![
        tiny_request("regular-wave", 0),
        tiny_request("divergent", 3),
        tiny_request("dp-storm", 1),
        tiny_request("stream-storm", 0),
        tiny_request("monte-carlo", 9),
    ];

    // Cold run: everything simulated fresh; join spills the cache.
    let service = Service::start(cfg());
    let mut cold_bytes = Vec::new();
    for req in &requests {
        let resp = service.submit(req).unwrap().wait();
        assert_eq!(source_of(&resp), Source::Fresh);
        cold_bytes.push(report_bytes(&resp));
    }
    let cold_stats = service.join();
    assert_eq!(cold_stats.served, requests.len() as u64);

    // The spill exists and holds every result.
    let spill = cache::load(&dir).expect("spill written on join");
    assert_eq!(spill.results.len(), requests.len());

    // Warm restart: every repeat request is answered from the restored
    // cache, byte-identical to the cold run.
    let service = Service::start(cfg());
    for (req, cold) in requests.iter().zip(&cold_bytes) {
        let resp = service.submit(req).unwrap().wait();
        assert_eq!(source_of(&resp), Source::Cache);
        assert_eq!(&report_bytes(&resp), cold, "{}: warm != cold", req.kernel);
    }
    let warm_stats = service.join();
    assert_eq!(warm_stats.served, 0, "no re-simulation on the warm path");
    assert_eq!(warm_stats.cache_hit, requests.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_boot_serves_novel_requests_fresh_and_identical() {
    // A warm boot must not change what a *novel* request reports: a salt
    // never seen by the first service run is simulated fresh and reports
    // the same bytes as a service without a cache.
    let dir = tmp_dir("warm-novel");
    let cfg = |cache_dir: Option<PathBuf>, cold: bool| ServeConfig {
        shards: 1,
        queue_cap: 64,
        timeout: None,
        cache_dir,
        cold,
        gpu_threads: 1,
    };

    // Seed the spill with the same kernel family, different salt.
    let service = Service::start(cfg(Some(dir.clone()), false));
    service
        .submit(&tiny_request("monte-carlo", 1))
        .unwrap()
        .wait();
    service.join();

    // Reference: the novel salt on a cache-less service.
    let service = Service::start(cfg(None, false));
    let reference = report_bytes(
        &service
            .submit(&tiny_request("monte-carlo", 2))
            .unwrap()
            .wait(),
    );
    service.join();

    // Warm boot, novel salt: fresh simulation, identical bytes.
    let service = Service::start(cfg(Some(dir.clone()), false));
    let resp = service
        .submit(&tiny_request("monte-carlo", 2))
        .unwrap()
        .wait();
    assert_eq!(source_of(&resp), Source::Fresh);
    assert_eq!(report_bytes(&resp), reference);
    service.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_truncated_spill_starts_cold() {
    let dir = tmp_dir("corrupt");

    // Seed a valid spill.
    let cfg = || ServeConfig {
        shards: 1,
        queue_cap: 16,
        timeout: None,
        cache_dir: Some(dir.clone()),
        cold: false,
        gpu_threads: 1,
    };
    let service = Service::start(cfg());
    let req = tiny_request("regular-wave", 0);
    service.submit(&req).unwrap().wait();
    service.join();
    let path = cache::spill_path(&dir);
    let valid = std::fs::read_to_string(&path).expect("spill exists");

    // Truncated: cut the valid spill in half.
    std::fs::write(&path, &valid[..valid.len() / 2]).unwrap();
    assert!(cache::load(&dir).is_none(), "truncated spill rejected");
    let service = Service::start(cfg());
    let resp = service.submit(&req).unwrap().wait();
    assert_eq!(
        source_of(&resp),
        Source::Fresh,
        "cold start after truncation"
    );
    service.join();

    // Garbage bytes.
    std::fs::write(&path, "{not json at all").unwrap();
    assert!(cache::load(&dir).is_none(), "garbage spill rejected");
    let service = Service::start(cfg());
    let resp = service.submit(&req).unwrap().wait();
    assert_eq!(source_of(&resp), Source::Fresh);
    service.join();

    // Nested far past the parser's depth bound: an error, not a stack
    // overflow.
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    assert!(cache::load(&dir).is_none(), "deeply nested spill rejected");
    let service = Service::start(cfg());
    let resp = service.submit(&req).unwrap().wait();
    assert_eq!(source_of(&resp), Source::Fresh, "cold start after nesting");
    service.join();

    // Wrong version: valid JSON, unsupported layout.
    std::fs::write(&path, r#"{"version": 999, "results": []}"#).unwrap();
    assert!(cache::load(&dir).is_none(), "version mismatch rejected");

    // The version-1 layout, which carried memo snapshots next to the
    // results: the same results, so only the version and the `memo` array
    // tell it apart, and it boots cold.
    let serde::Value::Object(mut fields) = serde_json::parse(&valid).unwrap() else {
        panic!("a spill is a JSON object");
    };
    assert!(
        fields.iter().all(|(k, _)| k != "memo"),
        "the spill carries no memo key"
    );
    let version = &mut fields
        .iter_mut()
        .find(|(k, _)| k == "version")
        .expect("the spill is versioned")
        .1;
    assert_eq!(*version, serde::Value::Int(2));
    *version = serde::Value::Int(1);
    fields.push((
        "memo".into(),
        serde_json::parse(
            r#"[{"device": "00c0ffee00c0ffee", "snapshot": {"version": 1,
                "warps": [[7, 4636737291354636288, 42,
                    [1, 2, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]],
                "blocks": []}}]"#,
        )
        .unwrap(),
    ));
    std::fs::write(
        &path,
        serde_json::to_string(&serde::Value::Object(fields)).unwrap(),
    )
    .unwrap();
    assert!(cache::load(&dir).is_none(), "version-1 spill rejected");
    let service = Service::start(cfg());
    let resp = service.submit(&req).unwrap().wait();
    assert_eq!(
        source_of(&resp),
        Source::Fresh,
        "cold start after a version-1 spill"
    );
    service.join();

    // `cold: true` ignores even a valid spill.
    std::fs::write(&path, &valid).unwrap();
    let service = Service::start(ServeConfig {
        cold: true,
        ..cfg()
    });
    let resp = service.submit(&req).unwrap().wait();
    assert_eq!(
        source_of(&resp),
        Source::Fresh,
        "cold boot ignores the spill"
    );
    service.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_submissions_dedupe() {
    for shards in [1usize, 2, 8] {
        let service = Arc::new(Service::start(ServeConfig {
            shards,
            queue_cap: 64,
            timeout: None,
            cache_dir: None,
            cold: false,
            gpu_threads: 1,
        }));
        const SUBMITTERS: usize = 16;
        let barrier = Arc::new(Barrier::new(SUBMITTERS));
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let req = tiny_request("regular-wave", 42);
                    barrier.wait();
                    let resp = service.submit(&req).unwrap().wait();
                    report_bytes(&resp)
                })
            })
            .collect();
        let bytes: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for b in &bytes[1..] {
            assert_eq!(b, &bytes[0], "all submitters see one identical report");
        }
        let stats = Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("all submitters joined"))
            .join();
        // Every submission is answered exactly once: simulated at least
        // once, and the rest split between in-flight dedupe and (for
        // submissions racing in after completion) the result cache.
        assert_eq!(stats.answered(), SUBMITTERS as u64, "shards={shards}");
        assert!(stats.served >= 1, "shards={shards}");
        assert!(
            stats.deduped + stats.cache_hit == SUBMITTERS as u64 - stats.served,
            "shards={shards}: {stats}"
        );
        assert_eq!(
            stats.shed + stats.timeout + stats.failed,
            0,
            "shards={shards}"
        );
    }
}

#[test]
fn full_queue_sheds_and_zero_timeout_times_out() {
    // Shed: one worker, queue capacity 1. The first job occupies the
    // worker (or the queue), the second fills the queue, so among three
    // distinct submissions at least one is shed.
    let service = Service::start(ServeConfig {
        shards: 1,
        queue_cap: 1,
        timeout: None,
        cache_dir: None,
        cold: false,
        gpu_threads: 1,
    });
    let tickets: Vec<_> = (0..3)
        .map(|salt| service.submit(&tiny_request("divergent", salt)))
        .collect();
    let shed = tickets
        .iter()
        .filter(|t| matches!(t, Err(SubmitError::Shed)))
        .count();
    assert!(shed >= 1, "queue of 1 with 3 rapid submits must shed");
    for t in tickets.into_iter().flatten() {
        assert!(matches!(t.wait(), Response::Done { .. }));
    }
    let stats = service.join();
    assert_eq!(stats.shed, shed as u64);

    // Timeout: a deadline that has always already passed when the worker
    // dequeues — cooperative cancellation answers TimedOut, counts once.
    let service = Service::start(ServeConfig {
        shards: 1,
        queue_cap: 16,
        timeout: Some(Duration::ZERO),
        cache_dir: None,
        cold: false,
        gpu_threads: 1,
    });
    let resp = service
        .submit(&tiny_request("regular-wave", 0))
        .unwrap()
        .wait();
    assert!(matches!(resp, Response::TimedOut), "got {resp:?}");
    let stats = service.join();
    assert_eq!(stats.timeout, 1);
    assert_eq!(stats.served, 0);

    // Invalid requests are refused at submit, before touching a worker.
    let service = Service::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    assert!(matches!(
        service.submit(&tiny_request("no-such-kernel", 0)),
        Err(SubmitError::Invalid(_))
    ));
    // A device the simulator would divide by zero on is refused too, and
    // the shard it would have reached keeps answering.
    let mut bad = tiny_request("regular-wave", 0);
    for warp_size in [0, 128] {
        bad.device.warp_size = warp_size;
        assert!(matches!(
            service.submit(&bad),
            Err(SubmitError::Invalid(e)) if e.contains("warp_size")
        ));
    }
    // The timing pass's lane count is not the client's to set: a second
    // lane would start a pool thread in the shard.
    let mut bad = tiny_request("regular-wave", 0);
    bad.device.timing_threads = 2;
    assert!(matches!(
        service.submit(&bad),
        Err(SubmitError::Invalid(e)) if e.contains("timing_threads")
    ));
    let resp = service
        .submit(&tiny_request("regular-wave", 0))
        .unwrap()
        .wait();
    assert_eq!(source_of(&resp), Source::Fresh);
    service.join();
}
