// Positive fixture for `no-global-state`: one process-global per form.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
pub static REGISTRY: Mutex<Vec<String>> = Mutex::new(Vec::new());
pub(crate) static ROUTES: std::sync::RwLock<Vec<u32>> = std::sync::RwLock::new(Vec::new());
static FLAG: Cell<bool> = Cell::new(false);
static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
static CONFIG: OnceLock<String> = OnceLock::new();
static MODEL: OnceCell<u64> = OnceCell::new();
static TABLE: Lazy<Vec<u64>> = Lazy::new(Vec::new);
static mut COUNTER: u64 = 0;
thread_local! {
    static BUF: Vec<u8> = Vec::new();
}
static COUNTS: [AtomicU32; 4] = [ZERO; 4];
