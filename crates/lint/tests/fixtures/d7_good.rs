// Fixture: the counter lives in the struct a run builds. Immutable
// statics and `'static` lifetimes hold no state.
static MODELS: &[&str] = &["bert", "whisper"];

#[derive(Default)]
pub struct Ids {
    next: u64,
}

impl Ids {
    pub fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

pub fn model(i: usize) -> &'static str {
    MODELS[i % MODELS.len()]
}
