//! Invariant 9: instrumentation must never change kernel or serving
//! results.
//!
//! This suite runs identically with and without `--features obs` (CI
//! builds both), so the assertions pin bit-equality of every
//! instrumented path against its uninstrumented serial oracle in both
//! feature states. The scrape-side assertions are conditioned on
//! `snap::obs::ENABLED`: live counters when the runtime is compiled
//! in, empty expositions when it is compiled out.

mod common;

use common::{hints, FREEZE_EVERY};
use snap::obs::{MetricValue, MetricsRegistry};
use snap::prelude::*;

fn scrape(name: &str) -> Option<MetricValue> {
    MetricsRegistry::global()
        .snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
}

fn counter_value(name: &str) -> u64 {
    match scrape(name) {
        Some(MetricValue::Counter(v)) => v,
        other => panic!("expected counter {name}, got {other:?}"),
    }
}

/// Kernels run with instrumentation live are bit-identical to the
/// serial oracles, and the registry observes the runs exactly when the
/// feature is on.
#[test]
fn instrumented_kernels_match_serial_oracles() {
    let rmat = Rmat::new(RmatParams::paper(10, 8), 77);
    let edges = rmat.edges();
    let n = 1 << 10;
    let g = DynGraph::<HybridAdj>::undirected(n, &hints(edges.len() * 2));
    for u in StreamBuilder::new(&edges, 1).construction_shuffled().iter() {
        g.apply(u);
    }
    assert!(g.adjacency().treap_vertex_count() > 0, "both hybrid arms");
    let csr = g.to_csr();
    let cfg = ParConfig::default().with_threads(2);

    let par = snap::par::par_bfs_with(&csr, 0, &cfg);
    let ser = bfs(&csr, 0);
    assert_eq!(par.dist, ser.dist, "BFS distances bit-identical");

    let (par_labels, stats) = snap::par::par_cc_stats(&csr, &cfg);
    assert_eq!(
        par_labels,
        connected_components(&csr),
        "CC labels bit-identical"
    );
    assert!(stats.levels() > 0, "the runtime really ran");

    let par_scores = snap::par::par_bc_with(&csr, BcSources::Exact, &cfg);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&par_scores),
        bits(&betweenness_exact(&csr)),
        "BC scores bit-identical"
    );

    if snap::obs::ENABLED {
        assert!(
            counter_value("snap_par_runs_total") >= 3,
            "every kernel invocation lands in the registry"
        );
        assert!(counter_value("snap_par_edges_scanned_total") > 0);
    } else {
        assert!(
            MetricsRegistry::global().snapshot().is_empty(),
            "no-op registry scrapes empty"
        );
    }
}

/// The instrumented serve path (queue gauge, phase timers, publication
/// stamps, sampled query latency) publishes the same versions and
/// labels as ever, and the scrape surfaces agree with the engine's own
/// counters when the feature is on.
#[test]
fn instrumented_serving_results_are_unchanged() {
    let hints = hints(256);
    let g = DynGraph::<HybridAdj>::undirected(32, &hints);
    let engine = ServeEngine::new(g, ServeConfig::default().with_shards(2));
    for i in 0..16u32 {
        engine.submit(vec![Update::insert(TimedEdge::new(
            i % 8,
            (i + 1) % 8,
            i + 1,
        ))]);
    }
    // Queued batches share cycles, so the inserts take 1 to 16 of them.
    engine.flush();
    let head = engine.epoch();
    assert!((1..=16).contains(&head));
    // One delete of each kind the certificate distinguishes, one cycle
    // each (a flush per update keeps them apart): a chord that never was
    // a certificate edge; (3, 4), a certificate edge of the 8-cycle with
    // (7, 0) as its replacement; then (7, 0) itself, which now splits
    // the cycle. And one no-op.
    let tail = [
        Update::delete(TimedEdge::new(20, 21, 0)),
        Update::insert(TimedEdge::new(1, 5, 20)),
        Update::delete(TimedEdge::new(1, 5, 0)),
        Update::delete(TimedEdge::new(3, 4, 0)),
        Update::delete(TimedEdge::new(7, 0, 0)),
    ];
    for u in tail {
        engine.submit(vec![u]);
        engine.flush();
    }

    // Results: identical to a bulk-synchronous oracle of the stream.
    let v = engine.pin();
    let oracle = DynGraph::<HybridAdj>::undirected(32, &hints);
    for i in 0..16u32 {
        oracle.apply(&Update::insert(TimedEdge::new(i % 8, (i + 1) % 8, i + 1)));
    }
    for u in &tail {
        oracle.apply(u);
    }
    let oracle_csr = oracle.to_csr();
    assert_eq!(v.num_entries(), oracle_csr.num_entries());
    let labels = v.component_labels().expect("connectivity on");
    assert_eq!(**labels, connected_components(&oracle_csr));
    for _ in 0..200 {
        // Hammer the sampled query path: results never vary.
        assert_eq!(engine.same_component(0, 1), labels[0] == labels[1]);
    }
    assert_eq!(engine.full_rebuild_count(), Some(0));
    let conn = engine.indexes().connectivity().expect("connectivity on");
    assert_eq!(conn.repair_count(), 1, "only the split relabels");
    assert_eq!(
        (engine.updates_applied(), engine.updates_changed()),
        (21, 20)
    );
    // The writer's freeze rule, counted the same in both feature states:
    // a cycle per tail update after the inserts' cycles, the last frozen,
    // and never more than `FREEZE_EVERY` cycles to one freeze.
    let cycles = head + 5;
    assert_eq!(engine.epoch(), cycles);
    assert_eq!(v.epoch(), cycles);
    let freezes = engine.freezes();
    assert!((cycles.div_ceil(FREEZE_EVERY)..=cycles).contains(&freezes));

    if snap::obs::ENABLED {
        assert!(counter_value("snap_serve_epochs_published_total") >= cycles);
        assert!(counter_value("snap_serve_freezes_total") >= freezes);
        // Cycle sizes: this is the binary's only engine, so the
        // histogram holds exactly its cycles and every update applied.
        match scrape("snap_serve_cycle_updates") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!((h.count, h.sum), (engine.epoch(), engine.updates_applied()));
            }
            other => panic!("expected histogram snap_serve_cycle_updates, got {other:?}"),
        }
        // One sample per freeze, each at most every row of the graph.
        match scrape("snap_serve_freeze_rows_reread") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, engine.freezes());
                assert!(h.max <= 32, "{} rows re-read of 32", h.max);
            }
            other => panic!("expected histogram snap_serve_freeze_rows_reread, got {other:?}"),
        }
        assert!(counter_value("snap_serve_queries_total") >= 200);
        assert!(counter_value("snap_serve_updates_applied_total") >= 21);
        assert!(counter_value("snap_serve_updates_changed_total") >= 20);
        assert!(counter_value("snap_conn_noncertificate_deletes_total") >= 1);
        assert!(counter_value("snap_conn_certificate_deletes_total") >= 2);
        assert!(counter_value("snap_conn_replacements_total") >= 1);
        assert!(counter_value("snap_conn_splits_total") >= 1);
        assert!(counter_value("snap_conn_repairs_total") >= 1);
        assert_eq!(counter_value("snap_conn_full_rebuilds_total"), 0);
        let text = MetricsRegistry::global().render_text();
        assert!(text.contains("# TYPE snap_serve_queue_depth gauge"));
        assert!(text.contains("snap_serve_publish_lag_ns_count"));
        assert!(text.contains("snap_serve_pin_staleness_epochs_count"));
        assert!(text.contains("snap_conn_search_scanned_entries_count"));
        assert!(text.contains("snap_conn_relabel_members_count"));
        assert!(text.contains("snap_conn_fallback_relabels_total"));
        let json = MetricsRegistry::global().render_json();
        assert!(json.contains("snap_serve_apply_ns"));
    } else {
        assert_eq!(MetricsRegistry::global().render_text(), "");
        assert_eq!(MetricsRegistry::global().render_json(), "[]\n");
        assert!(MetricsRegistry::global().serve_http("127.0.0.1:0").is_err());
    }
}

/// The applier's phase timers and its absorb timer (recorded when an
/// index is attached, so the manager attaches one) record a batch
/// exactly when the feature is on, and the batch lands as a sequential
/// loop would land it in both feature states.
#[test]
fn applier_phase_timers_leave_the_batch_unchanged() {
    let timers = [
        "snap_apply_partition_ns",
        "snap_apply_sort_ns",
        "snap_apply_groups_ns",
        "snap_cycle_absorb_ns",
    ];
    let counts = || {
        timers.map(|name| match scrape(name) {
            Some(MetricValue::Histogram(h)) => h.count,
            None => 0,
            other => panic!("expected histogram {name}, got {other:?}"),
        })
    };
    let batch: Vec<Update> = (0..2000u32)
        .map(|i| {
            let e = TimedEdge::new(i % 97, (i * i + 3) % 97, i + 1);
            if i % 5 == 4 {
                Update::delete(e)
            } else {
                Update::insert(e)
            }
        })
        .collect();
    let before = counts();
    let mgr = SnapshotManager::new(DynGraph::<HybridAdj>::undirected(97, &hints(4096)));
    let conn = mgr.enable_connectivity();
    assert!(mgr.apply_batch(&batch));
    let after = counts();
    let oracle = DynGraph::<HybridAdj>::undirected(97, &hints(4096));
    for u in &batch {
        oracle.apply(u);
    }
    assert_eq!(*mgr.snapshot(), oracle.to_csr());
    assert_eq!(conn.labels(mgr.live()), connected_components(&oracle));
    for (name, (was, is)) in timers.iter().zip(before.into_iter().zip(after)) {
        if snap::obs::ENABLED {
            assert!(is > was, "{name} recorded nothing");
        } else {
            assert_eq!(is, 0, "{name} compiled out");
        }
    }
}

/// With the feature on, the `/metrics` endpoint
/// (`MetricsRegistry::global().serve_http(addr)`) serves the text
/// exposition over plain TCP.
#[test]
fn metrics_endpoint_serves_text_when_enabled() {
    if !snap::obs::ENABLED {
        return;
    }
    use std::io::{Read, Write};
    MetricsRegistry::global()
        .counter("endpoint_probe_total", "probe")
        .inc();
    let srv = MetricsRegistry::global()
        .serve_http("127.0.0.1:0")
        .expect("bind ephemeral port");
    let mut s = std::net::TcpStream::connect(srv.addr()).expect("connect");
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK"));
    assert!(resp.contains("endpoint_probe_total 1"));
    srv.shutdown();
}
