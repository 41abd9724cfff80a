// Negative fixture for `ordered-serialization`: every iteration is
// order-stable — BTreeMap storage, or an explicit sort on the same
// statement (including a continuation line).
fn export(rows: &mut Vec<String>) {
    let mut dur_of: BTreeMap<u64, u64> = BTreeMap::new();
    dur_of.insert(1, 2);
    for (k, v) in &dur_of {
        rows.push(format!("{k}={v}"));
    }
    let mut tags: HashMap<String, u64> = HashMap::new();
    tags.insert("a".into(), 1);
    let mut keys: Vec<String> = tags.keys().cloned().collect();
    keys.sort();
    let mut pairs: Vec<(String, u64)> = tags
        .drain(..)
        .collect::<Vec<_>>();
    pairs.sort();
}

// The consuming and mutating forms, each with its ordering step: a sort
// right after the statement, or a `BTree*` anywhere before its `;` —
// however long the chain.
fn dispatch(groups: HashMap<u64, Vec<u64>>, mut tails: HashMap<u64, u64>) {
    let mut bumped: Vec<&mut u64> = tails.values_mut().collect();
    bumped.sort();
    let mut pairs: Vec<(&u64, &mut u64)> = tails.iter_mut().collect();
    pairs.sort();
    let mut nodes: Vec<u64> = tails.into_keys().collect();
    nodes.sort_unstable();
    let tasks = groups
        .into_iter()
        .map(|(node, pages)| (node, pages))
        .filter(|(_, pages)| !pages.is_empty())
        .map(|(node, pages)| (node, pages.len()))
        .collect::<BTreeMap<u64, usize>>();
    let mut partials: HashMap<u64, u64> = HashMap::new();
    partials.insert(1, 2);
    let mut rows: Vec<u64> = partials.into_values().collect();
    rows.sort_unstable();
    let _ = (nodes, tasks, rows);
}

// Through a lock guard and over an alias of a hash map, each with its
// ordering step: a `BTreeMap` collect, or a `BTreeMap` binding on the
// chain's `let` line.
type Index = FxHashMap<u64, u64>;
struct Table {
    routes: Mutex<FxHashMap<u64, u64>>,
    index: RwLock<Index>,
}
fn walk(t: &Table) {
    let mut ids: Vec<u64> = t.routes.lock().keys().copied().collect();
    ids.sort_unstable();
    let pages = t
        .index
        .read()
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect::<BTreeMap<u64, u64>>();
    // The ordered type written on the statement's `let` line counts too.
    let by_page: BTreeMap<u64, u64> = t
        .index
        .read()
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect();
    let _ = (ids, pages, by_page);
}
