// R6 fixture: fault-handling functions (`degrade*`, `on_fault*`) must
// be panic-free AND alloc-free in ANY module — this file is analyzed
// under a cold-module path and must still flag.

struct Gw {
    spare: Option<Vec<u8>>,
    degraded_pkts: u64,
}

impl Gw {
    fn degrade_forward(&mut self, pkt: &[u8]) {
        // Alloc in a recovery path: the allocator may be the resource
        // that is exhausted.
        let copy = pkt.to_vec();
        // Panicking range slice in a recovery path.
        let _head = &copy[..20];
        self.degraded_pkts += 1;
    }

    fn on_fault_pool_dry(&mut self) {
        // Unwrap in a recovery path.
        let buf = self.spare.take().unwrap();
        drop(buf);
    }

    fn on_fault_rebuild(&mut self) {
        let scratch: Vec<u8> = Vec::new();
        drop(scratch);
        panic!("rebuild failed");
    }
}

// Not a fault-handling function: in a cold module nothing applies.
fn helper(x: Option<u8>) -> u8 {
    x.unwrap()
}
