//! `pxbench compare A.json B.json`: one row per (workload, end-to-end
//! metric), each side's median and quartiles, the ratio with its base,
//! and a verdict against the metric's bound.

use crate::json::{parse, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's median is known less precisely than the bound, so
    /// neither "same" nor "worse" can be told.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// Reps the quartiles were taken over.
    pub n: f64,
}

impl Side {
    /// Two standard errors of the median, as a share of it, from the
    /// side's own reps: for near-normal samples the median's standard
    /// error is 1.2533 σ/√n and σ is IQR/1.349, so 2 se = 1.86 IQR/√n.
    /// (A run's reps spread far more than the medians of repeated runs
    /// do; judging by the raw quartiles would call everything
    /// unresolved.)
    fn uncertainty(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            1.86 * (self.p75 - self.p25).abs() / (self.median.abs() * self.n.max(1.0).sqrt())
        }
    }
}

/// `a` is the base, `b` the candidate.
pub fn judge(m: &EndToEnd, a: Side, b: Side, same_seed: bool) -> Verdict {
    let worse_by = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if m.exact_per_seed && same_seed {
        // Counts and logical-clock values repeat exactly: any move is real.
        return match worse_by {
            d if d > 0.0 => Verdict::Worse,
            d if d < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if a.uncertainty().max(b.uncertainty()) > m.bound {
        return Verdict::Unresolved;
    }
    let allowed = m.bound * a.median.abs();
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(row: &Value) -> Option<Side> {
    let num = |k: &str| row.get(k).and_then(Value::as_f64);
    let median = num("value")?;
    Some(Side {
        median,
        p25: num("p25").unwrap_or(median),
        p75: num("p75").unwrap_or(median),
        n: num("n").unwrap_or(1.0),
    })
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |v: &Value| v.get("seed").and_then(Value::as_f64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    println!(
        "base A = {}\ncand B = {}",
        a_path.display(),
        b_path.display()
    );
    if !same_seed {
        println!("seeds differ: exact metrics are held to their bounds, not to equality");
    }
    println!(
        "{:<13} {:<22} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [p25, p75]",
        "B median",
        "B [p25, p75]",
        "B/A",
        "bound"
    );
    let blocks = |v: &Value| v.get("workloads").map(|w| w.fields().to_vec());
    let a_blocks = blocks(&a).ok_or("A has no workloads")?;
    let mut worse = 0;
    let mut rows = 0;
    for (workload, a_block) in &a_blocks {
        let Some(b_block) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<13} missing from B");
            worse += 1;
            continue;
        };
        for m in END_TO_END {
            let get = |block: &Value| {
                block
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (get(a_block), get(b_block)) else {
                continue;
            };
            let verdict = judge(m, sa, sb, same_seed);
            rows += 1;
            if verdict == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{:<13} {:<22} {:>12.6} {:>25} {:>12.6} {:>25} {:>8.4} {:>6}  {}",
                workload,
                m.name,
                sa.median,
                format!("[{:.6}, {:.6}]", sa.p25, sa.p75),
                sb.median,
                format!("[{:.6}, {:.6}]", sb.p25, sb.p75),
                if sa.median == 0.0 {
                    f64::NAN
                } else {
                    sb.median / sa.median
                },
                if m.exact_per_seed && same_seed {
                    "exact".to_string()
                } else {
                    format!("{:.3}", m.bound)
                },
                verdict.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("no (workload, end-to-end metric) pair is in both files".to_string());
    }
    println!("{rows} rows, {worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn flat(v: f64) -> Side {
        Side {
            median: v,
            p25: v,
            p75: v,
            n: 1.0,
        }
    }

    #[test]
    fn bounds_decide_between_same_worse_and_better() {
        let fwd = end_to_end("fwd_mpps").unwrap();
        assert_eq!(fwd.bound, 0.25);
        assert_eq!(judge(fwd, flat(10.0), flat(8.0), true), Verdict::Same);
        assert_eq!(judge(fwd, flat(10.0), flat(7.4), true), Verdict::Worse);
        assert_eq!(judge(fwd, flat(10.0), flat(12.6), true), Verdict::Better);
        let p99 = end_to_end("burst_service_us_p99").unwrap();
        assert_eq!(judge(p99, flat(10.0), flat(12.4), true), Verdict::Same);
        assert_eq!(judge(p99, flat(10.0), flat(12.6), true), Verdict::Worse);
    }

    #[test]
    fn a_median_known_worse_than_the_bound_is_unresolved() {
        let fwd = end_to_end("fwd_mpps").unwrap();
        let reps = |n| Side {
            median: 10.0,
            p25: 9.0,
            p75: 10.5,
            n,
        };
        // IQR 15 % of the median: one rep leaves the median known to
        // ±28 %, wider than the bound; 31 reps pin it to ±5 %.
        assert_eq!(judge(fwd, reps(1.0), flat(5.0), true), Verdict::Unresolved);
        assert_eq!(judge(fwd, reps(31.0), flat(5.0), true), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_flag_any_move_at_one_seed_and_use_bounds_across_seeds() {
        let drops = end_to_end("drop_share").unwrap();
        assert_eq!(judge(drops, flat(0.0), flat(0.0), true), Verdict::Same);
        assert_eq!(judge(drops, flat(0.0), flat(1e-9), true), Verdict::Worse);
        let cy = end_to_end("conversion_yield").unwrap();
        assert_eq!(judge(cy, flat(0.93), flat(0.9299), true), Verdict::Worse);
        assert_eq!(judge(cy, flat(0.93), flat(0.9299), false), Verdict::Same);
    }
}
