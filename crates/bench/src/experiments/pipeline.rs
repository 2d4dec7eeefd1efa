//! E7 — Fig. 7: the end-to-end pipeline (extract → convert/swizzle →
//! navigate) with cache save/restore for long transactions.

use std::time::{Duration, Instant};

use xnf_core::{load_workspace, save_workspace, Workspace};
use xnf_fixtures::{build_paper_db, PaperScale, DEPS_ARC};

#[derive(Debug, Clone)]
pub struct PipelinePoint {
    pub departments: usize,
    pub tuples: usize,
    pub connections: usize,
    pub extract: Duration,
    pub swizzle: Duration,
    pub navigate: Duration,
    pub save: Duration,
    pub load: Duration,
    pub image_bytes: usize,
}

pub fn run_pipeline(departments: usize) -> PipelinePoint {
    let db = build_paper_db(PaperScale {
        departments,
        ..Default::default()
    });

    // Extract: run the XNF query (server side).
    let t0 = Instant::now();
    let result = db.session().query(DEPS_ARC, &[]).unwrap();
    let extract = t0.elapsed();

    // Convert + swizzle: build the workspace.
    let t0 = Instant::now();
    let ws = Workspace::from_result(&result).unwrap();
    let swizzle = t0.elapsed();

    // Navigate: walk every dept → employees → skills once.
    let t0 = Instant::now();
    let mut touched = 0u64;
    for d in ws.independent("xdept").unwrap() {
        touched += 1;
        for e in d.children("employment").unwrap() {
            touched += 1;
            for _s in e.children("empproperty").unwrap() {
                touched += 1;
            }
        }
    }
    let navigate = t0.elapsed();
    assert!(touched > 0);

    // Save / load (long-transaction protection).
    let t0 = Instant::now();
    let mut image = Vec::new();
    save_workspace(&ws, &mut image).unwrap();
    let save = t0.elapsed();
    let t0 = Instant::now();
    let back = load_workspace(&mut &image[..]).unwrap();
    let load = t0.elapsed();
    assert_eq!(back.tuple_count(), ws.tuple_count());

    PipelinePoint {
        departments,
        tuples: ws.tuple_count(),
        connections: ws.connection_count(),
        extract,
        swizzle,
        navigate,
        save,
        load,
        image_bytes: image.len(),
    }
}

pub fn render_pipeline(p: &PipelinePoint) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 7 — pipeline for {} departments ({} tuples, {} connections):",
        p.departments, p.tuples, p.connections
    );
    let _ = writeln!(
        s,
        "  extract (server query):   {:>9.2} ms",
        super::ms(p.extract)
    );
    let _ = writeln!(
        s,
        "  convert + swizzle:        {:>9.2} ms",
        super::ms(p.swizzle)
    );
    let _ = writeln!(
        s,
        "  navigate (full walk):     {:>9.2} ms",
        super::ms(p.navigate)
    );
    let _ = writeln!(
        s,
        "  cache save / load:        {:>9.2} / {:.2} ms ({} byte image)",
        super::ms(p.save),
        super::ms(p.load),
        p.image_bytes
    );
    s
}
