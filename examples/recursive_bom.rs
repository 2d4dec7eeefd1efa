//! Recursive composite objects (Sect. 2): a bill-of-materials closure,
//! compiled through the same pipeline as every CO (the executor applies
//! reachability to the candidate streams), then navigated in the cache.
//!
//! Run with: `cargo run --example recursive_bom`

use composite_views::{Database, Workspace};

fn main() {
    let db = Database::new();
    let session = db.session();
    session
        .execute_batch(
            "CREATE TABLE PARTS (pid INT NOT NULL, pname VARCHAR(20));
         CREATE TABLE BOM (parent INT, child INT);
         INSERT INTO PARTS VALUES (1, 'engine'), (2, 'piston'), (3, 'ring'),
                                  (4, 'bolt'), (5, 'wheel'), (6, 'rim');
         INSERT INTO BOM VALUES (1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (6, 4);",
        )
        .expect("schema+data");

    // The engine's transitive closure; the wheel/rim subtree is outside it.
    let result = session
        .query(
            "OUT OF ROOT asm AS (SELECT * FROM PARTS WHERE pid = 1),
                    part AS PARTS,
                    top_uses AS (RELATE asm VIA uses, part USING BOM b
                                 WHERE asm.pid = b.parent AND b.child = part.pid),
                    sub_uses AS (RELATE part VIA uses, part USING BOM b2
                                 WHERE part.pid = b2.parent AND b2.child = uses.pid)
             TAKE *",
            &[],
        )
        .expect("recursive CO");

    let ws = Workspace::from_result(&result).expect("cache");
    let asm = ws.independent("asm").unwrap().next().expect("root part");
    println!("bill of materials for {}:", asm.get("pname").unwrap());
    for top in asm.children("top_uses").unwrap() {
        print_subtree(&ws, top.id(), 1);
    }
    println!(
        "\nreached {} parts ({} edges); wheel/rim are not part of the closure",
        ws.component("part").unwrap().len(),
        ws.relationship("sub_uses").unwrap().connection_count()
    );
}

fn print_subtree(ws: &Workspace, id: u32, depth: usize) {
    let part = ws.component("part").unwrap();
    println!("{}- {}", "  ".repeat(depth), part.row(id)[1]);
    for child in ws.children("sub_uses", id).unwrap() {
        print_subtree(ws, child.id(), depth + 1);
    }
}
