// R5 fixture: allocation-free recording functions, plus allocating
// code that is legitimately outside the recording paths. Analyzed as a
// px-obs module path, where R1 and R5 both apply — so nothing here may
// unwrap, slice with partial ranges, or allocate inside record/
// observe*/push.

pub struct Ring {
    buf: [u64; 8],
    next: usize,
}

impl Ring {
    // Recording side: pure stores and arithmetic.
    pub fn push(&mut self, v: u64) {
        if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = v;
        }
        self.next = (self.next + 1) % self.buf.len();
    }

    pub fn record(&mut self, v: u64) {
        self.push(v.wrapping_mul(3));
    }

    pub fn observe_batch(&mut self, wall: u64, pkts: u64) {
        if pkts > 0 {
            self.record(wall / pkts);
        }
    }

    // Drain side: may allocate — it runs after the run, not per packet.
    pub fn drain(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.buf.len());
        for v in &self.buf {
            out.push(*v);
        }
        out
    }

    pub fn render(&self) -> String {
        format!("{} entries", self.buf.len())
    }
}
