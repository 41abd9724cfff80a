//! Deterministic latency attribution: fold the [`TraceLog`](crate::trace::TraceLog) into a
//! component/op profile.
//!
//! A raw span dump answers "what happened"; this module answers "where did
//! the time go". [`Profile::from_registry`] aggregates every completed span
//! into a per-`component/op` table of *inclusive* virtual time (the span's
//! own interval) and *self* time (inclusive minus the intervals of its
//! direct children), computes a per-phase breakdown of the commit path
//! ([`Profile::commit_phases`]) from span parentage, and snapshots every
//! registered [`Timeline`](crate::metrics::Timeline) (the `apply_lag`
//! trend). Everything is integer nanoseconds aggregated in `BTreeMap`s, so
//! the result — and its JSON encoding in
//! [`RunReport`](crate::report::RunReport) — is byte-deterministic for a
//! seeded single-client run.
//!
//! Three span populations are deliberately excluded or fenced:
//!
//! * **abandoned** spans (guard dropped without `finish`, i.e. early-return
//!   error paths) carry no duration and are counted but never aggregated;
//! * **orphans** (spans whose parent was evicted from the ring) still
//!   aggregate into `ops`, but their lost parentage is surfaced as a count
//!   so a truncated profile is visibly truncated;
//! * spans on forked contexts (replica fan-out, async REDO shipping) live
//!   in their own trace lanes and therefore aggregate as root spans — they
//!   are real work, but never inflate the commit critical path.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::contention::{LockProfile, DEFAULT_TOP_K};
use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::trace::TraceEvent;

/// Aggregate of every completed span of one `component/op`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Completed (non-abandoned) spans.
    pub count: u64,
    /// Inclusive virtual time: sum of span intervals, ns.
    pub total_ns: u64,
    /// Self virtual time: inclusive minus direct children's intervals, ns.
    pub self_ns: u64,
}

/// One phase of the commit path: a direct child of a `core/commit` span
/// (or the commit's own remainder, keyed `"self"`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Child spans folded into this phase.
    pub count: u64,
    /// Virtual time attributed to the phase, ns.
    pub total_ns: u64,
}

/// Snapshot of one registered [`Timeline`](crate::metrics::Timeline).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelineSnapshot {
    /// Bucket width, virtual ns.
    pub bucket_ns: u64,
    /// Bucket index (`t / bucket_ns`) → last recorded value.
    pub samples: BTreeMap<u64, i64>,
}

/// One fault injection lifted out of the trace (a zero-length `fault/*`
/// instant recorded by the timestamped [`FaultPlan`](crate::fault::FaultPlan)
/// variants), in recording order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the injection, ns.
    pub at_ns: u64,
    /// Injection kind: `crash`, `restore`, `partition`, `heal`,
    /// `drops_on`, `drops_off`.
    pub op: String,
    /// Subject node id (0 for fabric-wide drop-probability changes).
    pub node: u64,
}

/// The folded trace: per-op aggregates, commit-phase accounting, and
/// timeline snapshots (see module docs).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Spans in the ring when the profile was taken (incl. abandoned).
    pub spans: u64,
    /// Spans recorded with no explicit finish (excluded from aggregates).
    pub abandoned: u64,
    /// Spans whose parent id was already evicted from the ring.
    pub orphans: u64,
    /// Sum of root-span intervals, ns — the denominator of self-time
    /// shares (roots cover all traced virtual time exactly once).
    pub root_total_ns: u64,
    /// Per-`component/op` aggregates, sorted by key.
    pub ops: BTreeMap<String, OpStat>,
    /// Commit latency split by direct children of `core/commit` spans,
    /// plus the `"self"` remainder. By construction the phase totals sum
    /// exactly to `ops["core/commit"].total_ns`, even when children were
    /// evicted from the ring (evicted time folds into `"self"`).
    pub commit_phases: BTreeMap<String, PhaseStat>,
    /// Every registered timeline but the resources' utilization ones,
    /// keyed `"component.name"`.
    pub timelines: BTreeMap<String, TimelineSnapshot>,
    /// Lock-contention profile: per-table wait/hold stats plus the top-K
    /// contended keys (empty when the engine recorded no lock traffic).
    pub locks: LockProfile,
    /// Fault injections recorded as `fault/*` trace instants, in recording
    /// order. Fault events never aggregate into `ops` or `folded` — they
    /// are markers, not work.
    pub fault_events: Vec<FaultEvent>,
    /// Inferno-compatible folded stacks: root-to-span `component/op`
    /// frames joined by `;`, weighted by the span's *self* time in ns.
    /// Zero-weight stacks are omitted (inferno drops them anyway);
    /// `BTreeMap` order keeps the export byte-deterministic.
    pub folded: BTreeMap<String, u64>,
}

impl Profile {
    /// Fold `registry`'s trace log, timelines and lock-contention state
    /// into a profile. A resource's `<name>.util_busy_ns` timeline is left
    /// out: the report summarises it as `resources.<name>.steady_util_pct`.
    pub fn from_registry(registry: &MetricsRegistry) -> Profile {
        let mut p = Self::from_events(&registry.trace().events());
        p.locks = registry.lock_contention().snapshot(DEFAULT_TOP_K);
        p.timelines = registry
            .timeline_handles()
            .into_iter()
            .filter(|(k, _)| !k.ends_with(".util_busy_ns"))
            .map(|(k, tl)| {
                (
                    k,
                    TimelineSnapshot {
                        bucket_ns: tl.bucket_ns(),
                        samples: tl.snapshot(),
                    },
                )
            })
            .collect();
        p
    }

    /// Fold a span dump into a profile (no timelines).
    pub fn from_events(events: &[TraceEvent]) -> Profile {
        let mut p = Profile {
            spans: events.len() as u64,
            ..Profile::default()
        };
        // Index live (non-abandoned) spans and the inclusive time of each
        // span's direct children, in one pass each. Fault instants are
        // markers, not work: they lift into `fault_events` and stay out of
        // every aggregate.
        let mut dur_of: HashMap<u64, u64> = HashMap::with_capacity(events.len());
        let mut by_id: HashMap<u64, &TraceEvent> = HashMap::with_capacity(events.len());
        for ev in events {
            if ev.component == "fault" {
                p.fault_events.push(FaultEvent {
                    at_ns: ev.start.as_nanos(),
                    op: ev.op.to_string(),
                    node: ev.client,
                });
                continue;
            }
            if ev.abandoned {
                p.abandoned += 1;
            } else {
                dur_of.insert(ev.id, (ev.end - ev.start).as_nanos());
                by_id.insert(ev.id, ev);
            }
        }
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        let mut children: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        for ev in events {
            if ev.abandoned || ev.component == "fault" {
                continue;
            }
            if ev.parent != 0 {
                if dur_of.contains_key(&ev.parent) {
                    let d = (ev.end - ev.start).as_nanos();
                    *child_ns.entry(ev.parent).or_default() += d;
                    children.entry(ev.parent).or_default().push(ev);
                } else {
                    p.orphans += 1;
                }
            }
        }
        for ev in events {
            if ev.abandoned || ev.component == "fault" {
                continue;
            }
            let dur = (ev.end - ev.start).as_nanos();
            let kids = child_ns.get(&ev.id).copied().unwrap_or(0);
            let self_ns = dur.saturating_sub(kids);
            let stat = p.ops.entry(op_key(ev)).or_default();
            stat.count += 1;
            stat.total_ns += dur;
            stat.self_ns += self_ns;
            if self_ns > 0 {
                *p.folded.entry(folded_key(ev, &by_id)).or_default() += self_ns;
            }
            if ev.parent == 0 || !dur_of.contains_key(&ev.parent) {
                p.root_total_ns += dur;
            }
            if ev.component == "core" && ev.op == "commit" {
                let mut accounted = 0u64;
                if let Some(kids) = children.get(&ev.id) {
                    for child in kids {
                        let d = (child.end - child.start).as_nanos();
                        let ph = p.commit_phases.entry(op_key(child)).or_default();
                        ph.count += 1;
                        ph.total_ns += d;
                        accounted += d;
                    }
                }
                let own = p.commit_phases.entry("self".to_string()).or_default();
                own.count += 1;
                own.total_ns += dur.saturating_sub(accounted);
            }
        }
        p
    }

    /// Whether no spans, timeline samples or lock traffic were captured
    /// (tracing was off — the report's `profile` section will say so, not
    /// vanish).
    pub fn is_empty(&self) -> bool {
        self.spans == 0
            && self.timelines.values().all(|t| t.samples.is_empty())
            && self.locks.is_empty()
            && self.fault_events.is_empty()
    }

    /// The profile as a JSON tree. Shares are two-decimal percentages
    /// derived from integer ns, so the rendered bytes stay reproducible.
    pub fn to_value(&self) -> Json {
        let pct = |part: u64, whole: u64| -> Json {
            if whole == 0 {
                return 0.0.into();
            }
            let hundredths = part as u128 * 10_000 / whole as u128;
            (hundredths as f64 / 100.0).into()
        };
        let ops = self.ops.iter().map(|(k, v)| {
            let stat = Json::obj([
                ("count", v.count.into()),
                ("total_ns", v.total_ns.into()),
                ("self_ns", v.self_ns.into()),
                ("self_share_pct", pct(v.self_ns, self.root_total_ns)),
            ]);
            (k, stat)
        });
        let commit_total = self.ops.get("core/commit").map(|s| s.total_ns).unwrap_or(0);
        let commit_phases = self.commit_phases.iter().map(|(k, v)| {
            let phase = Json::obj([
                ("count", v.count.into()),
                ("total_ns", v.total_ns.into()),
                ("share_pct", pct(v.total_ns, commit_total)),
            ]);
            (k, phase)
        });
        let timelines = self.timelines.iter().map(|(k, tl)| {
            let samples = tl.samples.iter().map(|(b, v)| (b.to_string(), (*v).into()));
            let snapshot = Json::obj([
                ("bucket_ns", tl.bucket_ns.into()),
                ("samples", Json::obj(samples)),
            ]);
            (k, snapshot)
        });
        let lock_tables = self.locks.tables.iter().map(|(label, t)| {
            let stat = Json::obj([
                ("space", u64::from(t.space).into()),
                ("acquires", t.acquires.into()),
                ("waits", t.waits.into()),
                ("wait_total_ns", t.wait_total_ns.into()),
                ("wait_p99_ns", t.wait_p99_ns.into()),
                ("wait_max_ns", t.wait_max_ns.into()),
                ("holds", t.holds.into()),
                ("hold_total_ns", t.hold_total_ns.into()),
                ("hold_p50_ns", t.hold_p50_ns.into()),
                ("hold_p99_ns", t.hold_p99_ns.into()),
                ("hold_max_ns", t.hold_max_ns.into()),
            ]);
            (label, stat)
        });
        let lock_top = self.locks.top.iter().map(|k| {
            Json::obj([
                ("table", k.table.as_str().into()),
                ("space", u64::from(k.space).into()),
                ("key", k.key_hex.as_str().into()),
                ("waits", k.waits.into()),
                ("wait_total_ns", k.wait_total_ns.into()),
                ("wait_max_ns", k.wait_max_ns.into()),
            ])
        });
        let fault_events = self.fault_events.iter().map(|f| {
            Json::obj([
                ("at_ns", f.at_ns.into()),
                ("op", f.op.as_str().into()),
                ("node", f.node.into()),
            ])
        });
        Json::obj([
            ("spans", self.spans.into()),
            ("abandoned", self.abandoned.into()),
            ("orphans", self.orphans.into()),
            ("root_total_ns", self.root_total_ns.into()),
            ("ops", Json::obj(ops)),
            ("commit_phases", Json::obj(commit_phases)),
            ("timelines", Json::obj(timelines)),
            (
                "locks",
                Json::obj([
                    ("tables", Json::obj(lock_tables)),
                    ("top", Json::Arr(lock_top.collect())),
                ]),
            ),
            ("fault_events", Json::Arr(fault_events.collect())),
            (
                "folded",
                Json::obj(self.folded.iter().map(|(stack, w)| (stack, (*w).into()))),
            ),
        ])
    }
}

fn op_key(ev: &TraceEvent) -> String {
    format!("{}/{}", ev.component, ev.op)
}

/// Root-to-span stack of `component/op` frames joined by `;` — the folded
/// line format flamegraph renderers (inferno et al.) consume. A span whose
/// parent was evicted from the ring becomes a root frame, matching how
/// root-time accounting treats it.
fn folded_key(ev: &TraceEvent, by_id: &HashMap<u64, &TraceEvent>) -> String {
    let mut frames = vec![op_key(ev)];
    let mut parent = ev.parent;
    while parent != 0 {
        match by_id.get(&parent) {
            Some(pe) => {
                frames.push(op_key(pe));
                parent = pe.parent;
            }
            None => break,
        }
    }
    frames.reverse();
    frames.join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::render;
    use crate::time::{SimCtx, VTime};
    use crate::trace::TraceLog;
    use std::sync::Arc;

    /// Build: commit(10us) -> { wal/flush(4us) -> astore/append(3us),
    /// lock/wait(1us) }, plus one abandoned span and one foreign root.
    fn sample_events() -> Vec<TraceEvent> {
        let log = Arc::new(TraceLog::new(64));
        log.enable();
        let mut ctx = SimCtx::new(1, 7);
        let commit = log.span(&ctx, "core", "commit");
        let lock = log.span(&ctx, "lock", "wait");
        ctx.advance(VTime::from_micros(1));
        lock.finish(&ctx);
        let flush = log.span(&ctx, "wal", "flush");
        ctx.advance(VTime::from_micros(1));
        let app = log.span(&ctx, "astore", "append");
        ctx.advance(VTime::from_micros(3));
        app.finish(&ctx);
        flush.finish(&ctx);
        {
            let _dead = log.span(&ctx, "astore", "append"); // error path
        }
        ctx.advance(VTime::from_micros(5));
        commit.finish(&ctx);
        let root = log.span(&ctx, "pagestore", "ship");
        ctx.advance(VTime::from_micros(2));
        root.finish(&ctx);
        log.events()
    }

    #[test]
    fn inclusive_and_self_time() {
        let p = Profile::from_events(&sample_events());
        assert_eq!(p.spans, 6);
        assert_eq!(p.abandoned, 1);
        assert_eq!(p.orphans, 0);
        let commit = &p.ops["core/commit"];
        assert_eq!(commit.count, 1);
        assert_eq!(commit.total_ns, 10_000);
        // Commit self = 10us - (1us lock + 4us flush).
        assert_eq!(commit.self_ns, 5_000);
        let flush = &p.ops["wal/flush"];
        assert_eq!(flush.total_ns, 4_000);
        assert_eq!(flush.self_ns, 1_000);
        // Abandoned append excluded: one completed append only.
        assert_eq!(p.ops["astore/append"].count, 1);
        // Roots: commit (10us) + pagestore/ship (2us).
        assert_eq!(p.root_total_ns, 12_000);
    }

    #[test]
    fn commit_phases_sum_to_commit_total() {
        let p = Profile::from_events(&sample_events());
        assert_eq!(p.commit_phases["lock/wait"].total_ns, 1_000);
        assert_eq!(p.commit_phases["wal/flush"].total_ns, 4_000);
        assert_eq!(p.commit_phases["self"].total_ns, 5_000);
        let sum: u64 = p.commit_phases.values().map(|s| s.total_ns).sum();
        assert_eq!(sum, p.ops["core/commit"].total_ns);
    }

    #[test]
    fn evicted_children_fold_into_self_preserving_sum() {
        // Tiny ring: the early (child) spans are evicted, the commit stays.
        let log = Arc::new(TraceLog::new(1));
        log.enable();
        let mut ctx = SimCtx::new(1, 7);
        let commit = log.span(&ctx, "core", "commit");
        let flush = log.span(&ctx, "wal", "flush");
        ctx.advance(VTime::from_micros(4));
        flush.finish(&ctx);
        ctx.advance(VTime::from_micros(6));
        commit.finish(&ctx);
        let p = Profile::from_events(&log.events());
        // Only the commit survived; its full interval lands in "self".
        assert_eq!(p.spans, 1);
        let sum: u64 = p.commit_phases.values().map(|s| s.total_ns).sum();
        assert_eq!(sum, p.ops["core/commit"].total_ns);
        assert_eq!(p.commit_phases["self"].total_ns, 10_000);
    }

    #[test]
    fn orphans_counted_and_become_roots() {
        // A child whose parent id never closed into the ring.
        let evs = vec![TraceEvent {
            id: 9,
            parent: 4,
            client: 1,
            component: "wal",
            op: "flush",
            start: VTime::ZERO,
            end: VTime::from_micros(2),
            abandoned: false,
        }];
        let p = Profile::from_events(&evs);
        assert_eq!(p.orphans, 1);
        assert_eq!(p.root_total_ns, 2_000);
    }

    #[test]
    fn json_is_deterministic_and_shares_are_fixed_point() {
        let p = Profile::from_events(&sample_events());
        let a = render(&p.to_value());
        assert_eq!(a, render(&p.to_value()));
        assert!(a.contains("\"core/commit\""));
        assert!(a.contains("\"commit_phases\""));
        // flush share of commit: 4us / 10us = 40.00%; lock wait 1us = 10%.
        assert!(a.contains("\"wal/flush\": {\"count\": 1, \"share_pct\": 40, \"total_ns\": 4000}"));
        assert!(a.contains("\"lock/wait\": {\"count\": 1, \"share_pct\": 10, \"total_ns\": 1000}"));
        // commit self share of root time: 5us / 12us = 41.66% (truncated).
        assert!(a.contains("\"self_share_pct\": 41.66"));
    }

    #[test]
    fn folded_stacks_weighted_by_self_time() {
        let p = Profile::from_events(&sample_events());
        // commit self 5us, flush self 1us, append self 3us, lock 1us,
        // pagestore root 2us; zero-weight stacks omitted.
        assert_eq!(p.folded["core/commit"], 5_000);
        assert_eq!(p.folded["core/commit;wal/flush"], 1_000);
        assert_eq!(p.folded["core/commit;wal/flush;astore/append"], 3_000);
        assert_eq!(p.folded["core/commit;lock/wait"], 1_000);
        assert_eq!(p.folded["pagestore/ship"], 2_000);
        // Folded self-times partition root time exactly.
        assert_eq!(p.folded.values().sum::<u64>(), p.root_total_ns);
    }

    #[test]
    fn fault_instants_lift_out_of_aggregates() {
        let log = Arc::new(TraceLog::new(64));
        log.enable();
        let mut ctx = SimCtx::new(1, 7);
        let sp = log.span(&ctx, "core", "commit");
        log.instant(VTime::from_micros(3), "fault", "crash", 2);
        ctx.advance(VTime::from_micros(10));
        sp.finish(&ctx);
        log.instant(VTime::from_micros(12), "fault", "restore", 2);
        let p = Profile::from_events(&log.events());
        assert_eq!(p.fault_events.len(), 2);
        assert_eq!(p.fault_events[0].op, "crash");
        assert_eq!(p.fault_events[0].at_ns, 3_000);
        assert_eq!(p.fault_events[0].node, 2);
        assert_eq!(p.fault_events[1].op, "restore");
        // Not counted as spans/ops/roots/folded.
        assert!(!p.ops.keys().any(|k| k.starts_with("fault/")));
        assert!(!p.folded.keys().any(|k| k.contains("fault/")));
        assert_eq!(p.root_total_ns, 10_000);
    }

    #[test]
    fn lock_profile_rides_registry_snapshot() {
        let reg = MetricsRegistry::new();
        let c = reg.lock_contention();
        c.set_label(7, "orders");
        c.note_acquire(7);
        c.note_wait(7, b"\x09", VTime::from_micros(4));
        c.note_hold(7, VTime::from_micros(20));
        let p = Profile::from_registry(&reg);
        assert!(!p.is_empty());
        assert_eq!(p.locks.tables["orders"].waits, 1);
        assert_eq!(p.locks.top.len(), 1);
        assert_eq!(p.locks.top[0].key_hex, "09");
        let s = render(&p.to_value());
        assert!(s.contains("\"locks\""));
        assert!(s.contains("\"orders\""));
        assert!(s.contains("\"key\": \"09\""));
    }

    #[test]
    fn json_carries_fault_and_folded_sections() {
        let p = Profile::from_events(&sample_events());
        let s = render(&p.to_value());
        assert!(s.contains("\"fault_events\": ["));
        assert!(s.contains("\"folded\""));
        assert!(s.contains("\"core/commit;wal/flush;astore/append\": 3000"));
        assert!(s.contains("\"tables\""));
        assert!(s.contains("\"top\": ["));
    }

    #[test]
    fn registry_profile_includes_timelines() {
        let reg = MetricsRegistry::new();
        reg.timeline("pagestore", "apply_lag_records")
            .record(VTime::from_millis(2), 9);
        let disk = crate::resource::Resource::with_metrics("disk", 1, &reg);
        disk.acquire(VTime::ZERO, VTime::from_micros(500));
        let p = Profile::from_registry(&reg);
        assert!(!p.is_empty());
        let tl = &p.timelines["pagestore.apply_lag_records"];
        assert_eq!(tl.samples[&2], 9);
        let s = render(&p.to_value());
        assert!(s.contains("\"pagestore.apply_lag_records\""));
        assert!(s.contains("\"2\": 9"));
        // A resource's utilization timeline is summarised, not copied: the
        // series is absent from the profile, its steady utilization is
        // still reported (500 us busy in the one 1 ms bucket: 50%).
        assert!(!p.timelines.contains_key("disk.util_busy_ns"));
        assert!(!s.contains("util_busy_ns"));
        let report = crate::report::RunReport::collect("util", None, &reg);
        assert_eq!(report.resources["disk"].steady_util_x100, 5_000);
    }
}
