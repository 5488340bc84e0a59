//! The benchmark's own reference values for the validate-threads
//! energies, kept in `reference.txt` as `key value` lines. Every simulated
//! energy is deterministic, so a value that drifts past 1e-9 relative is a
//! changed result, not noise.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Relative tolerance of every reference comparison.
const REL_TOL: f64 = 1e-9;

const REFERENCE_TXT: &str = include_str!("../reference.txt");

/// Parsed reference values plus what this run observed.
pub struct Reference {
    values: BTreeMap<String, f64>,
    observed: Vec<(String, f64)>,
}

impl Reference {
    /// The compiled-in reference table.
    ///
    /// # Errors
    /// A line that is not `key value` with a finite value.
    pub fn load() -> Result<Self, String> {
        let mut values = BTreeMap::new();
        for (i, line) in REFERENCE_TXT.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(key), Some(val), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("reference.txt:{}: expected `key value`", i + 1));
            };
            let v: f64 = val
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| format!("reference.txt:{}: bad value {val:?}", i + 1))?;
            values.insert(key.to_string(), v);
        }
        Ok(Self {
            values,
            observed: Vec::new(),
        })
    }

    /// Perturb one reference value, picked by `seed`, by one part per
    /// million: the self-test's proof that a wrong value fails an op.
    pub fn corrupt(&mut self, seed: u64) -> Option<String> {
        let n = u64::try_from(self.values.len()).ok().filter(|&n| n > 0)?;
        let idx = usize::try_from(seed % n).ok()?;
        let (key, v) = self.values.iter_mut().nth(idx)?;
        *v *= 1.0 + 1e-6;
        Some(key.clone())
    }

    /// Compare `got` with the reference under `key`, and remember it.
    ///
    /// # Errors
    /// The key is missing or the value is off by more than [`REL_TOL`].
    pub fn check(&mut self, key: &str, got: f64) -> Result<(), String> {
        self.observed.push((key.to_string(), got));
        let want = *self
            .values
            .get(key)
            .ok_or_else(|| format!("no reference value for {key}"))?;
        check_rel(key, got, want, REL_TOL)
    }

    /// Render what this run observed in the `reference.txt` format.
    pub fn observed_txt(&self) -> String {
        let mut out = String::from(
            "# validate-threads reference energies (J): `key value`, compared to 1e-9 relative.\n\
             # Regenerate with `--write-reference <path>` only when a change is meant to move them.\n",
        );
        for (k, v) in &self.observed {
            let _ = writeln!(out, "{k} {v:?}");
        }
        out
    }
}

/// Relative check of a measured value against its expected value.
fn check_rel(what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    let scale = want.abs().max(f64::MIN_POSITIVE);
    if got.is_finite() && ((got - want) / scale).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {got:?}, expected {want:?} (tolerance {tol:e})"
        ))
    }
}
