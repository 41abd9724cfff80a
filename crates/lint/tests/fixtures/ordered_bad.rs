// Positive fixture for `ordered-serialization`: hash iteration feeding a
// report, in several shapes (method chain, for-loop, drain).
fn export(rows: &mut Vec<String>) {
    let mut dur_of: HashMap<u64, u64> = HashMap::new();
    dur_of.insert(1, 2);
    for (k, v) in &dur_of {
        rows.push(format!("{k}={v}"));
    }
    let keys: Vec<u64> = dur_of.keys().copied().collect();
    let drained: Vec<(u64, u64)> = dur_of.drain().collect();
    let _ = (keys, drained);
}

// The consuming and mutating forms, a receiver on the line above the call,
// and a chain whose statement ends without an ordering step.
fn dispatch(groups: HashMap<u64, Vec<u64>>, mut tails: HashMap<u64, u64>) {
    for tail in tails.values_mut() {
        *tail += 1;
    }
    for (_, tail) in tails.iter_mut() {
        *tail += 1;
    }
    let nodes: Vec<u64> = tails.into_keys().collect();
    let tasks: Vec<Vec<u64>> = groups
        .into_iter()
        .map(|(_, pages)| pages)
        .filter(|pages| !pages.is_empty())
        .collect();
    let mut partials: HashMap<u64, u64> = HashMap::new();
    partials.insert(1, 2);
    let rows: Vec<u64> = partials.into_values().collect();
    let _ = (nodes, tasks, rows);
}

// Iteration through a lock guard, on one line or with the receiver on the
// lines above, and over a field whose type is an alias of a hash map.
type Index = FxHashMap<u64, u64>;
struct Table {
    routes: Mutex<FxHashMap<u64, u64>>,
    index: RwLock<Index>,
}
fn walk(t: &Table) {
    let ids: Vec<u64> = t.routes.lock().keys().copied().collect();
    let pages: Vec<u64> = t
        .index
        .read()
        .values()
        .copied()
        .collect();
    for (_, v) in t.index.write().iter_mut() {
        *v += 1;
    }
    let lens: Vec<u64> = t.routes.lock()
        .values()
        .copied()
        .collect();
    let _ = (ids, pages, lens);
}
