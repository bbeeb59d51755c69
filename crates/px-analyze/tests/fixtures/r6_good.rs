// R6 fixture: well-behaved recovery code — preallocated spare buffers,
// counter bumps, early returns. No panic tokens, no allocation.

struct Gw {
    spare: Option<Buf>,
    degraded: bool,
    degraded_pkts: u64,
    backpressure_drops: u64,
}

impl Gw {
    fn degrade_forward(&mut self, pkt: &[u8]) -> Option<Buf> {
        if !self.degraded {
            self.degraded = true;
        }
        match self.spare.take() {
            Some(mut buf) => {
                self.degraded_pkts += 1;
                buf.extend_from_slice(pkt);
                Some(buf)
            }
            None => {
                self.backpressure_drops += 1;
                None
            }
        }
    }

    fn degrade_exit(&mut self) {
        self.degraded = false;
    }

    fn on_fault_rearm(&mut self, returned: Buf) {
        // Re-arming the spare from a returned buffer: no allocation.
        self.spare = Some(returned);
    }
}

// A full-range slice cannot panic and stays legal in recovery code.
fn on_fault_inspect(pkt: &[u8]) -> usize {
    let body = &pkt[..];
    body.len()
}
