//! Service-level quarantine on the zero-copy read path: a bit flipped on
//! one fact-page read of a `ReadPath::Mmap` service must surface as a
//! typed `Corrupt` error, quarantine exactly that page for every clone
//! and thread, leave every node that does not touch the page answering
//! the oracle's rows, and clear through `repair_all` once the fault is
//! gone.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::DiskSink;
use cure_core::{reference, CubeSchema, Dimension, NodeCoder, NodeId, Tuples};
use cure_query::{CacheConfig, CubeRow, ReadPath};
use cure_serve::{CubeService, QueryOptions, ServeError};
use cure_storage::{Catalog, FaultInjector, IoPolicy, ReadFault, ReadFaultKind, PAGE_SIZE};

const PREFIX: &str = "q_";
const FACTS: &str = "facts";

/// Build a small CURE cube on disk; returns its directory, schema and
/// the oracle's sorted rows for every node.
fn build_cube() -> (PathBuf, Arc<CubeSchema>, Vec<Vec<CubeRow>>) {
    let dir = std::env::temp_dir().join(format!("cure_mmap_quarantine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::open(&dir).unwrap();
    let schema = CubeSchema::new(
        vec![
            Dimension::linear("prod", 8, &[vec![0, 0, 1, 1, 2, 2, 3, 3]]).unwrap(),
            Dimension::flat("store", 6),
            Dimension::flat("time", 5),
        ],
        2,
    )
    .unwrap();
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut tuples = Tuples::new(d, y);
    let mut x = 0x0BAD_F00Du64;
    let mut dims = vec![0u32; d];
    for i in 0..3_000usize {
        for (j, v) in dims.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
        }
        let aggs: Vec<i64> = (0..y).map(|k| (x % 100) as i64 + k as i64).collect();
        tuples.push_fact(&dims, &aggs, i as u64);
    }
    let mut heap = catalog.create_or_replace(FACTS, Tuples::fact_schema(d, y)).unwrap();
    tuples.store_fact(&mut heap).unwrap();
    drop(heap);
    let report = {
        let mut sink = DiskSink::new(&catalog, PREFIX, &schema, false, false, None).unwrap();
        CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&tuples, &mut sink)
            .unwrap()
    };
    CubeMeta {
        prefix: PREFIX.to_string(),
        fact_rel: FACTS.to_string(),
        n_dims: d,
        n_measures: y,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let coder = NodeCoder::new(&schema);
    let oracle = coder
        .all_ids()
        .map(|id| {
            let levels = coder.decode(id).unwrap();
            reference::compute_node(&schema, &tuples, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect()
        })
        .collect();
    (dir, Arc::new(schema), oracle)
}

/// Records every page read the storage layer asks the policy about.
#[derive(Debug, Default)]
struct ReadLog(Mutex<Vec<(PathBuf, u64)>>);

impl IoPolicy for ReadLog {
    fn on_read(&self, path: &Path, offset: u64, _len: usize) -> ReadFault {
        self.0.lock().unwrap().push((path.to_path_buf(), offset / PAGE_SIZE as u64));
        ReadFault::Proceed
    }
}

fn open_service(dir: &Path, schema: &Arc<CubeSchema>, policy: Arc<dyn IoPolicy>) -> CubeService {
    let catalog = Arc::new(Catalog::open_with_policy(dir, policy).unwrap());
    CubeService::open_with_read_path(
        catalog,
        Arc::clone(schema),
        PREFIX,
        CacheConfig::default(),
        ReadPath::Mmap,
    )
    .unwrap()
}

fn sorted(mut rows: Vec<CubeRow>) -> Vec<CubeRow> {
    rows.sort();
    rows
}

fn is_fact_file(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n == format!("{FACTS}.heap").as_str())
}

#[test]
fn corrupt_fact_page_is_quarantined_and_repaired_on_the_mmap_path() {
    let (dir, schema, oracle) = build_cube();
    let nodes: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();
    let opts = QueryOptions::default();

    // Learning pass: the same single-threaded sweep, fault-free, logging
    // which pages each node reads. The fault goes on the first read of a
    // fact page that not every node touches (every node reads the page
    // holding its groups' first fact rows).
    let log = Arc::new(ReadLog::default());
    let svc = open_service(&dir, &schema, log.clone() as Arc<dyn IoPolicy>);
    let open_reads = log.0.lock().unwrap().len();
    let mut fact_pages_read: Vec<BTreeSet<u64>> = Vec::new();
    for &id in &nodes {
        let before = log.0.lock().unwrap().len();
        let rows = svc.query_with_options(id, &opts).unwrap().rows;
        assert_eq!(sorted(rows), oracle[id as usize], "fault-free node {id}");
        let reads = log.0.lock().unwrap();
        fact_pages_read.push(
            reads[before..]
                .iter()
                .filter(|(p, _)| is_fact_file(p))
                .map(|&(_, page)| page)
                .collect(),
        );
    }
    drop(svc);
    let hit = |id: NodeId, page: u64| fact_pages_read[id as usize].contains(&page);
    let reads = log.0.lock().unwrap().clone();
    let (fault_at, bad_page) = reads
        .iter()
        .enumerate()
        .skip(open_reads)
        .find(|(_, (path, page))| is_fact_file(path) && !nodes.iter().all(|&id| hit(id, *page)))
        .map(|(i, &(_, page))| (i, page))
        .expect("some fact page is read by only some nodes");
    let hit = |id: NodeId| hit(id, bad_page);
    // Nodes before the first that reads the page run before the flip.
    let first_hit = nodes.iter().position(|&id| hit(id)).unwrap();

    // Fault run: flip one bit on that read.
    let inj = Arc::new(FaultInjector::fail_nth_read(fault_at as u64, ReadFaultKind::FlipBit));
    let svc = open_service(&dir, &schema, inj.clone() as Arc<dyn IoPolicy>);
    for &id in &nodes[..first_hit] {
        let rows = svc.query_with_options(id, &opts).unwrap().rows;
        assert_eq!(sorted(rows), oracle[id as usize], "node {id} before the fault");
    }
    let victim = nodes[first_hit];
    match svc.query_with_options(victim, &opts) {
        Err(ServeError::Corrupt { relation, page }) => {
            assert_eq!(relation, FACTS);
            assert_eq!(page, bad_page);
        }
        other => panic!("node {victim} over a flipped fact page: {other:?}"),
    }
    assert_eq!(inj.read_faults_fired(), 1, "the flip fired once");
    assert_eq!(svc.quarantine_len(), 1);
    assert_eq!(svc.quarantine_entries(), vec![(FACTS.to_string(), bad_page)]);

    // The fault was one read: the mapped page itself is sound. Only the
    // shared quarantine keeps a clone on another thread failing fast on
    // every node that touches the page, while the rest serve the oracle.
    let clone = svc.clone();
    let (nodes_ref, oracle_ref) = (&nodes, &oracle);
    std::thread::scope(|s| {
        s.spawn(move || {
            for &id in nodes_ref {
                match clone.query_with_options(id, &QueryOptions::default()) {
                    Err(ServeError::Corrupt { relation, page }) if hit(id) => {
                        assert_eq!((relation.as_str(), page), (FACTS, bad_page));
                    }
                    Ok(reply) if !hit(id) => {
                        assert_eq!(sorted(reply.rows), oracle_ref[id as usize], "node {id}");
                    }
                    other => panic!(
                        "node {id} (touches page: {}): {:?}",
                        hit(id),
                        other.map(|reply| reply.rows.len())
                    ),
                }
            }
        })
        .join()
        .unwrap();
    });
    assert_eq!(svc.quarantine_len(), 1, "fast failures add nothing to the quarantine");

    // Repair: the page re-verifies clean against the mapping and leaves
    // the quarantine; every node answers the oracle again.
    assert_eq!(svc.repair_all(), 1);
    assert_eq!(svc.quarantine_len(), 0);
    assert!(svc.quarantine_entries().is_empty());
    for &id in &nodes {
        let rows = svc.query_with_options(id, &opts).unwrap().rows;
        assert_eq!(sorted(rows), oracle[id as usize], "node {id} after repair");
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
