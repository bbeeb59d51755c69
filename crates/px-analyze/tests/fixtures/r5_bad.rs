// R5 fixture: five distinct allocation classes inside recording
// functions. Deliberately free of R1 material (no unwrap, no partial
// slicing) so the count isolates R5.

pub struct Rec {
    scratch: u64,
}

impl Rec {
    pub fn record(&mut self, _v: u64) {
        let v: Vec<u8> = Vec::new(); // 1: ctor allocation
        self.scratch = v.capacity() as u64;
    }

    pub fn evaluate(&mut self, data: &[u8]) {
        let copy = data.to_vec(); // 2: slice copy
        self.scratch = copy.len() as u64;
    }

    pub fn observe_batch(&mut self, wall: u64) {
        let label = format!("{wall}"); // 3: string formatting
        self.scratch = label.len() as u64;
    }

    pub fn observe_dwell(&mut self, tag: &String) {
        let owned = tag.clone(); // 4: clone
        self.scratch = owned.len() as u64;
    }

    pub fn push(&mut self, v: u64) {
        let boxed = Box::new(v); // 5: boxing
        self.scratch = *boxed;
    }

    // Not a recording function: allocation here is fine under R5.
    pub fn drain(&self) -> Vec<u64> {
        let mut out = Vec::new();
        out.push(self.scratch);
        out
    }
}
