//! YCSB core workloads A–F over the key-value interface (§5.3 notes
//! traditional OLTP metrics and workloads; YCSB is the standard KV mix
//! used to characterize state-access patterns).

use crate::loadgen::KeyChooser;
use tca_sim::SimRng;
use tca_storage::{Key, ProcRegistry, Value};

/// The standard YCSB workload letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50% read / 50% update.
    A,
    /// 95% read / 5% update.
    B,
    /// 100% read.
    C,
    /// 95% read-latest / 5% insert.
    D,
    /// 95% short scans / 5% insert.
    E,
    /// 50% read / 50% read-modify-write.
    F,
}

/// Scale and skew parameters.
#[derive(Debug, Clone)]
pub struct YcsbScale {
    /// Pre-loaded record count.
    pub records: usize,
    /// Zipfian skew (0 = uniform; 0.99 = YCSB default hot-spot).
    pub theta: f64,
}

impl Default for YcsbScale {
    fn default() -> Self {
        YcsbScale {
            records: 1000,
            theta: 0.99,
        }
    }
}

/// Seed records `user0 … userN-1`.
pub fn seed(scale: &YcsbScale) -> Vec<(Key, Value)> {
    (0..scale.records)
        .map(|i| (format!("user{i:08}"), Value::Int(i as i64)))
        .collect()
}

/// The YCSB stored procedures.
pub fn registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("ycsb_read", |tx, args| {
            Ok(vec![tx.get(args[0].as_str()).unwrap_or(Value::Null)])
        })
        .with("ycsb_update", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
        .with("ycsb_insert", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
        .with("ycsb_rmw", |tx, args| {
            let key = args[0].as_str().to_owned();
            let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(v + 1));
            Ok(vec![Value::Int(v + 1)])
        })
}

/// A sampler bound to one workload letter.
pub struct YcsbSampler {
    workload: YcsbWorkload,
    chooser: KeyChooser,
    records: usize,
    inserted: usize,
}

impl YcsbSampler {
    /// Build a sampler. Skew comes from the shared [`KeyChooser`]
    /// (Zipfian with `scale.theta`), the same chooser E19 uses to
    /// concentrate traffic on hot keys.
    pub fn new(workload: YcsbWorkload, scale: &YcsbScale) -> Self {
        YcsbSampler {
            workload,
            chooser: KeyChooser::zipfian(scale.records, scale.theta),
            records: scale.records,
            inserted: 0,
        }
    }

    fn key(&self, index: usize) -> String {
        format!("user{index:08}")
    }

    /// Sample the next operation: `(procedure, args)`.
    pub fn next_txn(&mut self, rng: &mut SimRng) -> (String, Vec<Value>) {
        let hot = self.chooser.pick(rng);
        match self.workload {
            YcsbWorkload::A => {
                if rng.chance(0.5) {
                    ("ycsb_read".into(), vec![Value::Str(self.key(hot))])
                } else {
                    (
                        "ycsb_update".into(),
                        vec![Value::Str(self.key(hot)), Value::Int(rng.next_u64() as i64)],
                    )
                }
            }
            YcsbWorkload::B => {
                if rng.chance(0.95) {
                    ("ycsb_read".into(), vec![Value::Str(self.key(hot))])
                } else {
                    (
                        "ycsb_update".into(),
                        vec![Value::Str(self.key(hot)), Value::Int(rng.next_u64() as i64)],
                    )
                }
            }
            YcsbWorkload::C => ("ycsb_read".into(), vec![Value::Str(self.key(hot))]),
            YcsbWorkload::D => {
                if rng.chance(0.95) {
                    // Read latest: most recent inserts are hottest.
                    let newest = self.records + self.inserted;
                    let back = self.chooser.pick(rng).min(newest.saturating_sub(1));
                    (
                        "ycsb_read".into(),
                        vec![Value::Str(self.key(newest - 1 - back))],
                    )
                } else {
                    let index = self.records + self.inserted;
                    self.inserted += 1;
                    (
                        "ycsb_insert".into(),
                        vec![Value::Str(self.key(index)), Value::Int(index as i64)],
                    )
                }
            }
            YcsbWorkload::E => {
                if rng.chance(0.95) {
                    // Short scan: encoded as a read of the start key (the
                    // harness issues DbRequest::Scan directly for true
                    // scans; the proc interface approximates cost).
                    ("ycsb_read".into(), vec![Value::Str(self.key(hot))])
                } else {
                    let index = self.records + self.inserted;
                    self.inserted += 1;
                    (
                        "ycsb_insert".into(),
                        vec![Value::Str(self.key(index)), Value::Int(index as i64)],
                    )
                }
            }
            YcsbWorkload::F => {
                if rng.chance(0.5) {
                    ("ycsb_read".into(), vec![Value::Str(self.key(hot))])
                } else {
                    ("ycsb_rmw".into(), vec![Value::Str(self.key(hot))])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_storage::{run_proc, DurableCell, DurableLog, Engine, EngineConfig, ProcOutcome};

    fn engine(scale: &YcsbScale) -> Engine {
        let mut engine = Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        );
        engine.load(seed(scale));
        engine
    }

    #[test]
    fn procs_roundtrip() {
        let scale = YcsbScale::default();
        let mut e = engine(&scale);
        let registry = registry();
        let out = run_proc(
            &mut e,
            &registry,
            "ycsb_read",
            &[Value::Str("user00000005".into())],
        );
        assert_eq!(out, ProcOutcome::Done(vec![Value::Int(5)]));
        run_proc(
            &mut e,
            &registry,
            "ycsb_update",
            &[Value::Str("user00000005".into()), Value::Int(99)],
        );
        assert_eq!(e.peek("user00000005"), Some(Value::Int(99)));
        let out = run_proc(
            &mut e,
            &registry,
            "ycsb_rmw",
            &[Value::Str("user00000005".into())],
        );
        assert_eq!(out, ProcOutcome::Done(vec![Value::Int(100)]));
    }

    #[test]
    fn workload_c_is_read_only() {
        let scale = YcsbScale::default();
        let mut sampler = YcsbSampler::new(YcsbWorkload::C, &scale);
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let (proc, _) = sampler.next_txn(&mut rng);
            assert_eq!(proc, "ycsb_read");
        }
    }

    #[test]
    fn workload_a_is_half_updates() {
        let scale = YcsbScale::default();
        let mut sampler = YcsbSampler::new(YcsbWorkload::A, &scale);
        let mut rng = SimRng::new(2);
        let updates = (0..2000)
            .filter(|_| sampler.next_txn(&mut rng).0 == "ycsb_update")
            .count();
        assert!((800..=1200).contains(&updates), "{updates}");
    }

    #[test]
    fn workload_d_inserts_fresh_keys() {
        let scale = YcsbScale {
            records: 100,
            theta: 0.5,
        };
        let mut sampler = YcsbSampler::new(YcsbWorkload::D, &scale);
        let mut rng = SimRng::new(3);
        let mut inserts = Vec::new();
        for _ in 0..500 {
            let (proc, args) = sampler.next_txn(&mut rng);
            if proc == "ycsb_insert" {
                inserts.push(args[0].as_str().to_owned());
            }
        }
        assert!(!inserts.is_empty());
        let unique: tca_sim::DetHashSet<_> = inserts.iter().collect();
        assert_eq!(unique.len(), inserts.len(), "no duplicate inserted keys");
    }

    #[test]
    fn zipf_skew_concentrates_reads() {
        let scale = YcsbScale {
            records: 1000,
            theta: 0.99,
        };
        let mut sampler = YcsbSampler::new(YcsbWorkload::C, &scale);
        let mut rng = SimRng::new(4);
        let mut head = 0;
        for _ in 0..2000 {
            let (_, args) = sampler.next_txn(&mut rng);
            let key = args[0].as_str().to_owned();
            let index: usize = key["user".len()..].parse().unwrap();
            if index < 100 {
                head += 1;
            }
        }
        assert!(head > 1000, "top-10% keys get most reads: {head}");
    }
}
