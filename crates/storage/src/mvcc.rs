//! Multi-version concurrency control storage.
//!
//! Each key maps to a list of versions ordered by commit timestamp. Reads
//! at a snapshot timestamp see the newest version at or below it; deletes
//! are tombstones. Old versions are reclaimed by [`MvccStore::gc`] once no
//! snapshot can observe them.
//!
//! GC costs what changed, not what is stored: a key holding one live
//! version has nothing to reclaim, so `gc` visits only the keys that have
//! more than one version or a tombstone. [`MvccStore::install`] lists a
//! key as a GC candidate on the write that makes it reclaimable — its
//! second version, or a tombstone as its only one — and `gc` keeps listed
//! only the keys that still qualify after trimming, so the list holds
//! each such key exactly once and needs no dedup. Writes to keys already
//! listed pay nothing extra.

use std::collections::BTreeMap;

use crate::types::{Key, Timestamp, Value};

/// One committed version of a key.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Commit timestamp that produced this version.
    pub ts: Timestamp,
    /// The value, or `None` for a delete tombstone.
    pub value: Option<Value>,
}

/// A multi-versioned key-value store.
#[derive(Debug, Default, Clone)]
pub struct MvccStore {
    data: BTreeMap<Key, Vec<Version>>,
    /// Keys [`MvccStore::gc`] must visit: exactly the [`reclaimable`]
    /// keys, each listed once. A key is added when a push makes it
    /// reclaimable and dropped by the `gc` that leaves it not.
    gc_candidates: Vec<Key>,
}

/// Whether GC can have work on a key with these versions: more than one
/// version, or a lone tombstone. A key with a single live version has
/// nothing to reclaim at any horizon.
fn reclaimable(versions: &[Version]) -> bool {
    versions.len() > 1 || versions.first().is_some_and(|v| v.value.is_none())
}

impl MvccStore {
    /// Empty store.
    pub fn new() -> Self {
        MvccStore::default()
    }

    /// Install a committed version of `key` at `ts`.
    ///
    /// Panics if `ts` is not newer than the key's latest version — commits
    /// must be applied in timestamp order.
    ///
    /// Lists the key as a GC candidate when this version makes it
    /// reclaimable: its second version, or a tombstone as its only one.
    pub fn install(&mut self, key: &Key, ts: Timestamp, value: Option<Value>) {
        let versions = self.data.entry(key.clone()).or_default();
        let listed = reclaimable(versions);
        if let Some(last) = versions.last() {
            assert!(
                ts >= last.ts,
                "out-of-order install on {key}: {ts} < {}",
                last.ts
            );
        }
        versions.push(Version { ts, value });
        if !listed && reclaimable(versions) {
            self.gc_candidates.push(key.clone());
        }
    }

    /// Read the newest version of `key` visible at snapshot `ts`.
    ///
    /// Returns `None` if the key did not exist (or was deleted) at `ts`.
    pub fn read_at(&self, key: &str, ts: Timestamp) -> Option<&Value> {
        let versions = self.data.get(key)?;
        versions
            .iter()
            .rev()
            .find(|v| v.ts <= ts)
            .and_then(|v| v.value.as_ref())
    }

    /// Read the latest committed version of `key`.
    pub fn read_latest(&self, key: &str) -> Option<&Value> {
        self.data.get(key)?.last().and_then(|v| v.value.as_ref())
    }

    /// Timestamp of the newest version of `key`, if any version exists.
    pub fn latest_ts(&self, key: &str) -> Option<Timestamp> {
        self.data.get(key).and_then(|v| v.last()).map(|v| v.ts)
    }

    /// Whether any committed version of `key` exists (including tombstones).
    pub fn has_history(&self, key: &str) -> bool {
        self.data.contains_key(key)
    }

    /// Drop versions no snapshot at or after `horizon` can see.
    ///
    /// For every key, the newest version at or below the horizon is kept
    /// (it is still visible); everything older goes. Returns the number of
    /// versions reclaimed.
    ///
    /// Only the listed GC candidates are visited.
    pub fn gc(&mut self, horizon: Timestamp) -> usize {
        let mut reclaimed = 0;
        let data = &mut self.data;
        self.gc_candidates.retain(|key| {
            let versions = data.get_mut(key).expect("listed keys are stored");
            // Index of the newest version visible at the horizon.
            let keep_from = versions.iter().rposition(|v| v.ts <= horizon).unwrap_or(0);
            reclaimed += keep_from;
            versions.drain(..keep_from);
            // Fully remove keys whose only remaining state is one tombstone
            // older than the horizon.
            let dead =
                versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= horizon;
            if dead {
                data.remove(key);
                return false;
            }
            reclaimable(versions)
        });
        reclaimed
    }

    /// Materialize the latest committed state in one pass over every key.
    ///
    /// Builds a checkpoint image from scratch (the engine does so only when
    /// it has no image yet; later checkpoints fold the WAL tail into the
    /// existing one) and serves as the oracle for tests of that fold.
    pub fn snapshot_latest(&self) -> BTreeMap<Key, Value> {
        self.data
            .iter()
            .filter_map(|(k, versions)| {
                versions
                    .last()
                    .and_then(|v| v.value.clone())
                    .map(|val| (k.clone(), val))
            })
            .collect()
    }

    /// Bulk-load a materialized state at timestamp `ts` (recovery).
    pub fn load_snapshot(&mut self, snapshot: BTreeMap<Key, Value>, ts: Timestamp) {
        for (k, v) in snapshot {
            self.install(&k, ts, Some(v));
        }
    }

    /// Number of live keys (with a non-tombstone latest version).
    pub fn live_keys(&self) -> usize {
        self.data
            .values()
            .filter(|v| v.last().is_some_and(|v| v.value.is_some()))
            .count()
    }

    /// Total number of stored versions (for GC accounting).
    pub fn version_count(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }

    /// Iterate over keys in a range with their latest values (simple scans).
    pub fn scan_latest<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a Key, &'a Value)> + 'a {
        self.data
            .range(prefix.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .filter_map(|(k, versions)| {
                versions
                    .last()
                    .and_then(|v| v.value.as_ref())
                    .map(|v| (k, v))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        s.to_owned()
    }

    #[test]
    fn snapshot_reads_see_correct_versions() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, Some(Value::Int(2)));
        assert_eq!(s.read_at("a", 5), None);
        assert_eq!(s.read_at("a", 10), Some(&Value::Int(1)));
        assert_eq!(s.read_at("a", 15), Some(&Value::Int(1)));
        assert_eq!(s.read_at("a", 20), Some(&Value::Int(2)));
        assert_eq!(s.read_latest("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn tombstones_hide_values() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, None);
        assert_eq!(s.read_at("a", 15), Some(&Value::Int(1)));
        assert_eq!(s.read_at("a", 25), None);
        assert_eq!(s.read_latest("a"), None);
        assert!(s.has_history("a"));
        assert_eq!(s.live_keys(), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-order install")]
    fn out_of_order_install_panics() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 5, Some(Value::Int(0)));
    }

    #[test]
    fn gc_keeps_visible_version() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, Some(Value::Int(2)));
        s.install(&k("a"), 30, Some(Value::Int(3)));
        let reclaimed = s.gc(25);
        assert_eq!(reclaimed, 1, "only ts=10 is invisible at horizon 25");
        assert_eq!(s.read_at("a", 25), Some(&Value::Int(2)));
        assert_eq!(s.read_at("a", 35), Some(&Value::Int(3)));
        assert_eq!(s.version_count(), 2);
    }

    #[test]
    fn gc_removes_dead_tombstoned_keys() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, None);
        s.gc(30);
        assert!(!s.has_history("a"));
        assert_eq!(s.version_count(), 0);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("b"), 11, Some(Value::from("x")));
        s.install(&k("c"), 12, None);
        let snap = s.snapshot_latest();
        assert_eq!(snap.len(), 2);
        let mut restored = MvccStore::new();
        restored.load_snapshot(snap, 12);
        assert_eq!(restored.read_latest("a"), Some(&Value::Int(1)));
        assert_eq!(restored.read_latest("b"), Some(&Value::from("x")));
        assert_eq!(restored.read_latest("c"), None);
    }

    #[test]
    fn scan_latest_respects_prefix() {
        let mut s = MvccStore::new();
        s.install(&k("order/1"), 1, Some(Value::Int(1)));
        s.install(&k("order/2"), 2, Some(Value::Int(2)));
        s.install(&k("stock/1"), 3, Some(Value::Int(9)));
        let orders: Vec<_> = s.scan_latest("order/").collect();
        assert_eq!(orders.len(), 2);
        assert!(orders.iter().all(|(k, _)| k.starts_with("order/")));
    }

    /// The full-scan GC that candidate-only [`MvccStore::gc`] replaces:
    /// trim every key, drop keys left holding one old tombstone.
    fn reference_gc(data: &mut BTreeMap<Key, Vec<Version>>, horizon: Timestamp) -> usize {
        let mut reclaimed = 0;
        data.retain(|_, versions| {
            let keep_from = versions.iter().rposition(|v| v.ts <= horizon).unwrap_or(0);
            reclaimed += keep_from;
            versions.drain(..keep_from);
            !(versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= horizon)
        });
        reclaimed
    }

    /// One step of the GC-equivalence property: `(op, key, value)`. `op`
    /// picks install value / install tombstone / GC at a horizon `value`
    /// steps behind the clock / `load_snapshot` of three keys from `key`.
    type GcStep = (u8, u8, u8);

    fn gc_equivalence_prop(steps: &[GcStep]) {
        let mut store = MvccStore::new();
        let mut reference = BTreeMap::new();
        let mut ts = 0;
        for (i, &(op, key, value)) in steps.iter().enumerate() {
            ts += 1;
            let k = format!("k{key}");
            match op {
                0 => store.install(&k, ts, Some(Value::Int(value.into()))),
                1 => store.install(&k, ts, None),
                2 => {
                    let horizon = ts.saturating_sub(value.into());
                    let expected = reference_gc(&mut reference, horizon);
                    assert_eq!(store.gc(horizon), expected, "step {i}: reclaimed");
                    assert_eq!(store.data, reference, "step {i}: history");
                }
                _ => {
                    let snapshot = (key..key + 3)
                        .map(|k| (format!("k{}", k % 6), Value::Int(value.into())))
                        .collect();
                    store.load_snapshot(snapshot, ts);
                }
            }
            if op != 2 {
                reference.clone_from(&store.data);
            }
            let mut listed = store.gc_candidates.clone();
            listed.sort();
            let reclaimable_keys: Vec<Key> = store
                .data
                .iter()
                .filter(|(_, versions)| reclaimable(versions))
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(listed, reclaimable_keys, "step {i}: each candidate once");
            let versions: usize = reference.values().map(Vec::len).sum();
            assert_eq!(store.version_count(), versions, "step {i}: versions");
            let live = reference
                .values()
                .filter(|v| v.last().is_some_and(|v| v.value.is_some()))
                .count();
            assert_eq!(store.live_keys(), live, "step {i}: live keys");
        }
    }

    /// Candidate-only GC reclaims exactly what a full scan would, and
    /// leaves the same history behind, under random installs, tombstones,
    /// GCs at lagging horizons and snapshot loads onto a non-empty store.
    #[test]
    fn candidate_gc_matches_full_scan() {
        use tca_sim::check::{check, tuple3, u8_in, vec_of};
        let steps = vec_of(tuple3(u8_in(0, 4), u8_in(0, 6), u8_in(0, 6)), 1, 120);
        check("candidate_gc_matches_full_scan", &steps, |steps| {
            gc_equivalence_prop(steps)
        });
    }

    #[test]
    fn gc_revisits_keys_trimmed_then_rewritten() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 1, Some(Value::Int(1)));
        s.install(&k("a"), 2, Some(Value::Int(2)));
        assert_eq!(s.gc(2), 1, "trimmed back to one version");
        // Unlisted now, until a second version makes it reclaimable again.
        s.install(&k("a"), 3, Some(Value::Int(3)));
        assert_eq!(s.gc(3), 1);
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.read_latest("a"), Some(&Value::Int(3)));
    }

    #[test]
    fn gc_keeps_tombstones_above_the_horizon() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 4, None);
        s.install(&k("b"), 1, Some(Value::Int(1)));
        s.install(&k("b"), 5, None);
        assert_eq!(s.gc(3), 0, "both tombstones are newer than the horizon");
        assert!(s.has_history("a") && s.has_history("b"));
        assert_eq!(s.gc(4), 0);
        assert!(!s.has_history("a"), "old lone tombstone removed");
        assert_eq!(s.gc(5), 1);
        assert!(!s.has_history("b"));
        assert_eq!(s.version_count(), 0);
    }

    #[test]
    fn gc_sees_keys_a_snapshot_load_gave_a_second_version() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 1, Some(Value::Int(1)));
        s.load_snapshot(BTreeMap::from([(k("a"), Value::Int(2))]), 2);
        assert_eq!(s.version_count(), 2);
        assert_eq!(s.gc(2), 1);
        assert_eq!(s.read_latest("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn latest_ts_tracks_installs() {
        let mut s = MvccStore::new();
        assert_eq!(s.latest_ts("a"), None);
        s.install(&k("a"), 7, Some(Value::Int(0)));
        assert_eq!(s.latest_ts("a"), Some(7));
    }
}
