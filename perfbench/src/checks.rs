//! Output checks: row counts, attribute domains, hard-DC violation
//! rates, output digests, and parsing served bodies back into instances.

use kamino_constraints::{violation_percentage, DenialConstraint, Hardness};
use kamino_core::FD_CYCLE_TOLERANCE_PCT;
use kamino_data::{AttrKind, Instance, Schema, Value};
use kamino_serve::Json;

/// Cells of `inst` outside their attribute's domain: unknown category
/// codes, non-finite or out-of-range numbers, and type mismatches.
pub fn domain_violations(schema: &Schema, inst: &Instance) -> usize {
    let mut bad = 0;
    for j in 0..schema.len() {
        let kind = &schema.attr(j).kind;
        for i in 0..inst.n_rows() {
            let ok = match (kind, inst.value(i, j)) {
                (AttrKind::Categorical { labels }, Value::Cat(c)) => (c as usize) < labels.len(),
                (AttrKind::Numeric { min, max, .. }, Value::Num(x)) => {
                    x.is_finite() && *min <= x && x <= *max
                }
                _ => false,
            };
            if !ok {
                bad += 1;
            }
        }
    }
    bad
}

/// `Ok` when `inst` has exactly `n` rows and every cell is in domain.
pub fn check_instance(schema: &Schema, inst: &Instance, n: usize) -> Result<(), String> {
    if inst.n_rows() != n {
        return Err(format!("expected {n} rows, got {}", inst.n_rows()));
    }
    match domain_violations(schema, inst) {
        0 => Ok(()),
        bad => Err(format!("{bad} cells outside their attribute domain")),
    }
}

/// FNV-1a over every cell's bits, column-major.
pub fn digest(inst: &Instance) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for j in 0..inst.n_cols() {
        for i in 0..inst.n_rows() {
            let bits = match inst.value(i, j) {
                Value::Cat(c) => u64::from(c),
                Value::Num(x) => x.to_bits() ^ 0x8000_0000_0000_0001,
            };
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Percent of violating tuple pairs (tuples, for unary DCs) per hard DC.
pub fn hard_dc_rates(dcs: &[DenialConstraint], inst: &Instance) -> Vec<(String, f64)> {
    dcs.iter()
        .filter(|dc| dc.hardness == Hardness::Hard)
        .map(|dc| (dc.name.clone(), violation_percentage(dc, inst)))
        .collect()
}

/// The largest rate of [`hard_dc_rates`] (0 when there are none).
pub fn max_rate(rates: &[(String, f64)]) -> f64 {
    rates
        .iter()
        .map(|r| r.1)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0)
}

/// Checks hard-DC rates of one whole draw. `exact` demands 0.0% on
/// every hard DC; otherwise each rate must stay within
/// [`FD_CYCLE_TOLERANCE_PCT`], the documented FD-cycle residual.
pub fn check_hard_dcs(rates: &[(String, f64)], exact: bool) -> Result<(), String> {
    let limit = if exact { 0.0 } else { FD_CYCLE_TOLERANCE_PCT };
    let over: Vec<String> = rates
        .iter()
        .filter(|r| r.1 > limit)
        .map(|r| format!("{} {:.4}% > {limit}%", r.0, r.1))
        .collect();
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("hard DCs violated: {}", over.join(", ")))
    }
}

/// Parses a served NDJSON body (one object per row, categorical labels
/// as strings) back into an instance of `schema`.
pub fn parse_ndjson(schema: &Schema, body: &str) -> Result<Instance, String> {
    let mut rows = Vec::new();
    for (k, line) in body.lines().enumerate() {
        let obj = Json::parse(line).map_err(|e| format!("line {k}: {e}"))?;
        let mut row = Vec::with_capacity(schema.len());
        for a in schema.attrs() {
            let v = obj
                .get(&a.name)
                .ok_or_else(|| format!("line {k}: missing `{}`", a.name))?;
            let value = match (&a.kind, v) {
                (AttrKind::Categorical { .. }, Json::Str(label)) => Value::Cat(
                    a.code(label)
                        .ok_or_else(|| format!("line {k}: unknown label `{label}`"))?,
                ),
                (AttrKind::Numeric { .. }, Json::Num(x)) => Value::Num(*x),
                _ => return Err(format!("line {k}: `{}` has the wrong type", a.name)),
            };
            row.push(value);
        }
        rows.push(row);
    }
    Instance::from_rows(schema, &rows).map_err(|e| e.to_string())
}

/// Parses a served CSV body (header line, then rows).
pub fn parse_csv(schema: &Schema, body: &str) -> Result<Instance, String> {
    kamino_data::csv::read_csv(schema, body.as_bytes()).map_err(|e| e.to_string())
}
