//! A layered bill-of-materials parts graph: the recursive composite object
//! of Sect. 2, whose derivation iterates along the PARTS → BOM → PARTS
//! cycle of the schema graph to a fixed point.

use xnf_core::{Database, DbConfig};
use xnf_storage::{Tuple, Value};

/// Build a layered BOM: `layers` levels of `width` parts, PARTS(pid,
/// pname) and BOM(parent, child); every part uses two parts of the next
/// layer (a DAG with sharing). Part `i` of layer `l` has pid
/// `l * width + i`.
pub fn build_bom(layers: usize, width: usize) -> Database {
    build_bom_with(layers, width, DbConfig::default())
}

/// [`build_bom`] under a custom [`DbConfig`].
pub fn build_bom_with(layers: usize, width: usize, config: DbConfig) -> Database {
    let db = Database::with_config(config);
    let s = db.session();
    s.execute_batch(
        "CREATE TABLE PARTS (pid INT NOT NULL, pname VARCHAR(20));
         CREATE TABLE BOM (parent INT, child INT);",
    )
    .unwrap();
    let parts = db.catalog().table("PARTS").unwrap();
    let bom = db.catalog().table("BOM").unwrap();
    let id = |layer: usize, i: usize| (layer * width + i) as i64;
    for layer in 0..layers {
        for i in 0..width {
            parts
                .insert(&Tuple::new(vec![
                    Value::Int(id(layer, i)),
                    Value::Str(format!("p{layer}_{i}")),
                ]))
                .unwrap();
            if layer + 1 < layers {
                for d in 0..2usize {
                    bom.insert(&Tuple::new(vec![
                        Value::Int(id(layer, i)),
                        Value::Int(id(layer + 1, (i + d) % width)),
                    ]))
                    .unwrap();
                }
            }
        }
    }
    s.execute("ANALYZE", &[]).unwrap();
    db
}

/// The BOM closure of the parts `roots` selects (a condition over PARTS):
/// the root assemblies `asm`, every part they use transitively, and the
/// `top_uses` / `sub_uses` connections between them.
pub fn bom_co(roots: &str) -> String {
    format!(
        "OUT OF ROOT asm AS (SELECT * FROM PARTS WHERE {roots}),
       part AS PARTS,
       top_uses AS (RELATE asm VIA uses, part USING BOM b
                    WHERE asm.pid = b.parent AND b.child = part.pid),
       sub_uses AS (RELATE part VIA uses, part USING BOM b2
                    WHERE part.pid = b2.parent AND b2.child = uses.pid)
TAKE *"
    )
}
