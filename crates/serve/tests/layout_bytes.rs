//! Pins on the bytes a `layout` request renders and on the layout
//! fingerprints a store is sealed under.
//!
//! The layout renderer streams each table straight into the result
//! buffer. Three checks hold it to the tree-built form it replaces:
//! FNV-1a-64 and length pins on five result renderings, an oracle that
//! builds the whole result as a `Json` tree for every small application
//! and target and compares bytes, and pins on `fingerprint_all`, which
//! must not move or stores sealed earlier stop opening.

use flo_bench::harness::{prepare_run, RunOverrides};
use flo_bench::{topology_for, Scheme};
use flo_core::{FileLayout, TargetLayers};
use flo_json::Json;
use flo_serve::protocol::{scale_name, target_name, Request};
use flo_serve::Service;
use flo_workloads::{by_name, Scale};

const TARGETS: [TargetLayers; 3] = [
    TargetLayers::Both,
    TargetLayers::IoOnly,
    TargetLayers::StorageOnly,
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn layout_request(app: &str, target: TargetLayers) -> Request {
    Request::Layout {
        app: app.into(),
        scale: Scale::Small,
        target,
    }
}

fn prepared_layouts(app: &str, target: Option<TargetLayers>) -> (f64, Vec<FileLayout>) {
    let workload = by_name(app, Scale::Small).expect("known app");
    let overrides = RunOverrides {
        mapping: None,
        target,
    };
    let prepared = prepare_run(
        &workload,
        &topology_for(Scale::Small),
        Scheme::Inter,
        &overrides,
    )
    .expect("layout pass");
    (prepared.optimized_fraction, prepared.layouts)
}

/// One layout as a `Json` tree, field by field.
fn layout_tree(layout: &FileLayout) -> Json {
    match layout {
        FileLayout::RowMajor => Json::obj().set("kind", "row-major"),
        FileLayout::ColMajor => Json::obj().set("kind", "col-major"),
        FileLayout::DimPerm(p) => Json::obj().set("kind", "dim-perm").set(
            "perm",
            p.iter().map(|&d| Json::from(d as u64)).collect::<Vec<_>>(),
        ),
        FileLayout::Hierarchical(h) => Json::obj()
            .set("kind", "hierarchical")
            .set("file_elems", h.file_elems)
            .set(
                "table",
                h.table.iter().map(|&o| Json::from(o)).collect::<Vec<_>>(),
            ),
    }
}

/// The whole `layout` result built as a `Json` tree and serialized.
fn tree_rendering(app: &str, target: TargetLayers) -> String {
    let (optimized_fraction, layouts) = prepared_layouts(app, Some(target));
    Json::obj()
        .set("app", app)
        .set("scale", scale_name(Scale::Small))
        .set("target", target_name(target))
        .set("optimized_fraction", optimized_fraction)
        .set(
            "layouts",
            layouts.iter().map(layout_tree).collect::<Vec<Json>>(),
        )
        .to_string()
}

#[test]
fn layout_result_bytes_match_golden_pins() {
    let svc = Service::with_budget(0);
    for (app, target, fnv, len) in [
        ("qio", TargetLayers::Both, 0x7513_73da_a913_bb7f, 77_791),
        ("swim", TargetLayers::IoOnly, 0xdc6a_3b24_275b_5cf3, 136_092),
        (
            "mgrid",
            TargetLayers::StorageOnly,
            0x4efb_f795_1edb_b6f5,
            56_404,
        ),
        ("applu", TargetLayers::Both, 0xb546_cb69_a470_5c1d, 147_282),
        ("cc-ver-1", TargetLayers::Both, 0x4128_b404_7c5a_ace4, 4_910),
    ] {
        let bytes = svc
            .execute_bytes(&layout_request(app, target))
            .expect("layout");
        assert_eq!(
            (fnv1a64(&bytes), bytes.len()),
            (fnv, len),
            "{app}/{} result bytes moved",
            target_name(target)
        );
    }
}

#[test]
fn layout_result_bytes_equal_the_tree_rendering_for_every_small_app() {
    let svc = Service::with_budget(0);
    for w in flo_workloads::all(Scale::Small) {
        for target in TARGETS {
            let bytes = svc
                .execute_bytes(&layout_request(w.name, target))
                .expect("layout");
            let tree = tree_rendering(w.name, target);
            assert!(
                bytes.as_slice() == tree.as_bytes(),
                "{}/{}: streamed bytes differ from the tree rendering",
                w.name,
                target_name(target)
            );
        }
    }
}

#[test]
fn layout_fingerprints_match_golden_pins() {
    for (app, print) in [
        ("qio", 0x3e80_1dd6_8be1_f9d3),
        ("swim", 0x2bb2_747f_03d0_6426),
        ("applu", 0xe801_5228_60a7_f2b3),
    ] {
        let (_, layouts) = prepared_layouts(app, None);
        assert_eq!(
            FileLayout::fingerprint_all(&layouts),
            print,
            "{app}: layout fingerprint moved; stores sealed under it would stop opening"
        );
    }
}
