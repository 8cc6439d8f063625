//! Differential check: every process space the workloads build gets the
//! same bounding box from the closed-form box path as from one
//! Fourier–Motzkin projection per dimension.

use lams_presburger::fm;
use lams_workloads::{suite, synthetic_app, AppSpec, Scale, SyntheticConfig};

fn assert_boxes_match_fm(app: &AppSpec, scale: &str) {
    for p in &app.processes {
        let got = p.space.bounding_box();
        assert!(got.is_ok(), "{} {scale} {}: {got:?}", app.name, p.name);
        assert_eq!(
            got,
            fm::bounding_box(p.space.system(), p.space.dims()),
            "{} {scale} {}",
            app.name,
            p.name
        );
    }
}

#[test]
fn suite_bounding_boxes_match_fm_at_every_scale() {
    for scale in [
        Scale::Tiny,
        Scale::Small,
        Scale::Paper,
        Scale::Large,
        Scale::Huge,
    ] {
        for app in suite::all(scale) {
            assert_boxes_match_fm(&app, &scale.to_string());
        }
    }
}

#[test]
fn open_pipeline_bounding_boxes_match_fm() {
    let app = synthetic_app(SyntheticConfig {
        seed: 0xC0FFEE,
        stages: 16,
        procs_per_stage: 32,
        dim: 128,
        max_halo: 2,
    });
    assert_eq!(app.processes.len(), 512);
    assert_boxes_match_fm(&app, "16x32");
}
