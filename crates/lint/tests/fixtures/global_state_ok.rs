// Negative fixture for `no-global-state`: state that has an owner, and
// statics that hold plain values.
const BATCH: usize = 64;
const ZERO: AtomicU64 = AtomicU64::new(0);
static NAME: &str = "order_flow";
static SIZES: [usize; 3] = [64, 512, 4096];

struct Replica {
    fleet: OnceLock<Arc<Mutex<FleetImages>>>,
    next_id: AtomicU64,
}

fn spawn<F: FnOnce() + Send + 'static>(f: F) -> &'static str {
    // A `static Mutex` in prose, and in a string: "static mut X".
    f();
    NAME
}
