// mmv-lint-fixture: crates/service/src/rogue.rs
//! Known-violation corpus for `lock-order`: lane and publication
//! locks combine only inside the canonical helpers, lanes are only
//! multiply acquired in lock_lanes' ascending loop, and nobody
//! touches the raw fields directly.
use std::sync::{Mutex, RwLock};

struct Rogue {
    lanes: Vec<Mutex<u8>>,
    published: RwLock<u8>,
}

impl Rogue {
    fn lock_lane(&self, i: usize) -> std::sync::MutexGuard<'_, u8> {
        // Canonical home: direct field access is legal here.
        match self.lanes[i].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn read_published(&self) -> u8 {
        match self.published.read() {
            Ok(g) => *g,
            Err(p) => *p.into_inner(),
        }
    }

    fn combines_lane_and_publication(&self) {
        let lane = self.lock_lane(0);
        let epoch = self.read_published(); //~ lock-order
        drop((lane, epoch));
    }

    fn grabs_two_lanes(&self) {
        let a = self.lock_lane(0);
        let b = self.lock_lane(1); //~ lock-order
        drop((a, b));
    }

    fn pokes_fields_directly(&self) {
        let g = self.lanes[0].lock(); //~ lock-order
        let p = self.published.read(); //~ lock-order
        drop((g, p));
    }

    fn lock_lanes(&self) {
        // The one sanctioned multi-lane acquisition: ascending order.
        let a = self.lock_lane(0);
        let b = self.lock_lane(1);
        drop((a, b));
    }

    fn locks_the_batch_then_reads_the_table(&self) {
        self.lock_lanes();
        let epoch = self.read_published(); //~ lock-order
        drop(epoch);
    }

    fn single_lane_is_fine(&self) {
        let g = self.lock_lane(0);
        drop(g);
    }
}
