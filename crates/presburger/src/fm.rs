//! Fourier–Motzkin elimination over affine constraint systems.
//!
//! Used by [`IterSpace`](crate::IterSpace) to derive per-dimension bounds
//! of *non-box* spaces (constraints coupling two or more dimensions) for
//! enumeration, and to prove emptiness. Box spaces take a closed-form
//! path in [`IterSpace::bounding_box`](crate::IterSpace::bounding_box)
//! that returns exactly what [`bounding_box`] returns for them; the
//! differential tests keep [`bounding_box`] as its reference.
//!
//! Elimination is performed over the *rational relaxation*: if the
//! relaxation is empty the integer set is certainly empty, and the
//! derived variable bounds are valid (possibly loose) bounds for the
//! integer set. Exact integer counting in this crate is always done by
//! bounded enumeration on top of these bounds, so the relaxation never
//! causes incorrect results — only, at worst, a little wasted pruning
//! work.

use crate::{AffineExpr, Constraint, ConstraintKind, ConstraintSystem, Error, Result, Var};

/// Eliminates `var` from the system, returning a system over the remaining
/// variables whose rational solution set is the projection of the input.
///
/// Equalities with a `±1` coefficient on `var` are used as exact
/// substitutions; other constraints are combined pairwise in the classic
/// Fourier–Motzkin manner.
///
/// ```
/// use lams_presburger::{AffineExpr, Constraint, ConstraintSystem, Var};
/// use lams_presburger::fm;
///
/// // { 0 <= x, x <= y, y <= 10 }  --eliminate x-->  { 0 <= y, y <= 10 }
/// let sys: ConstraintSystem = [
///     Constraint::ge(AffineExpr::var("x"), AffineExpr::constant(0)),
///     Constraint::le(AffineExpr::var("x"), AffineExpr::var("y")),
///     Constraint::le(AffineExpr::var("y"), AffineExpr::constant(10)),
/// ].into_iter().collect();
/// let projected = fm::eliminate(&sys, &Var::new("x"));
/// assert!(!fm::is_empty_rational(&projected));
/// let (lo, hi) = fm::var_bounds(&projected, &Var::new("y")).unwrap();
/// assert_eq!((lo, hi), (Some(0), Some(10)));
/// ```
pub fn eliminate(system: &ConstraintSystem, var: &Var) -> ConstraintSystem {
    // First, try an exact substitution via an equality with unit coefficient.
    for c in system.constraints() {
        if c.kind() == ConstraintKind::EqZero {
            let a = c.expr().coeff(var.clone());
            if a == 1 || a == -1 {
                // a*x + r = 0  =>  x = -r/a  =  -a*r (since a^2 = 1)
                let r = c.expr().clone() - AffineExpr::term(var.clone(), a);
                let replacement = r.scale(-a);
                let out: ConstraintSystem = system
                    .constraints()
                    .iter()
                    .filter(|&d| d != c)
                    .map(|d| substitute_in(d, var, &replacement))
                    .collect();
                return simplify(out);
            }
        }
    }

    let mut lowers: Vec<(i64, AffineExpr)> = Vec::new(); // a > 0: a*x + r >= 0
    let mut uppers: Vec<(i64, AffineExpr)> = Vec::new(); // b > 0: -b*x + r >= 0
    let mut rest: Vec<Constraint> = Vec::new();

    for c in system.constraints() {
        let a = c.expr().coeff(var.clone());
        if a == 0 {
            rest.push(c.clone());
            continue;
        }
        let r = c.expr().clone() - AffineExpr::term(var.clone(), a);
        match c.kind() {
            ConstraintKind::GeZero => {
                if a > 0 {
                    lowers.push((a, r));
                } else {
                    uppers.push((-a, r));
                }
            }
            ConstraintKind::EqZero => {
                // a*x + r = 0 becomes both a lower and an upper bound.
                if a > 0 {
                    lowers.push((a, r.clone()));
                    uppers.push((a, -r));
                } else {
                    uppers.push((-a, r.clone()));
                    lowers.push((-a, -r));
                }
            }
        }
    }

    let mut out = ConstraintSystem::new();
    for c in rest {
        out.push(c);
    }
    for (a, r_l) in &lowers {
        for (b, r_u) in &uppers {
            // a*x >= -r_l and b*x <= r_u  =>  a*r_u + b*r_l >= 0
            let combined = r_u.clone().scale(*a) + r_l.clone().scale(*b);
            out.push(Constraint::ge_zero(combined));
        }
    }
    simplify(out)
}

fn substitute_in(c: &Constraint, var: &Var, replacement: &AffineExpr) -> Constraint {
    let e = c.expr().substitute(var, replacement);
    match c.kind() {
        ConstraintKind::GeZero => Constraint::ge_zero(e),
        ConstraintKind::EqZero => Constraint::eq_zero(e),
    }
}

/// Drops trivially-true constraints and collapses the system to a single
/// unsatisfiable constraint when any trivially-false one is present.
pub fn simplify(system: ConstraintSystem) -> ConstraintSystem {
    let mut out = ConstraintSystem::new();
    for c in system.constraints() {
        match c.as_trivial() {
            Some(true) => {}
            Some(false) => {
                let mut bad = ConstraintSystem::new();
                bad.push(Constraint::unsatisfiable());
                return bad;
            }
            None => out.push(c.clone()),
        }
    }
    out
}

/// Returns `true` when the *rational relaxation* of the system is empty.
///
/// An empty rational relaxation implies the integer set is empty. The
/// converse does not hold (e.g. `2x == 1`), which is acceptable for this
/// crate's uses (see module docs).
pub fn is_empty_rational(system: &ConstraintSystem) -> bool {
    let mut sys = simplify(system.clone());
    loop {
        if sys
            .constraints()
            .iter()
            .any(|c| c.as_trivial() == Some(false))
        {
            return true;
        }
        let vars = sys.vars();
        match vars.first() {
            None => return false,
            Some(v) => {
                let v = v.clone();
                sys = eliminate(&sys, &v);
            }
        }
    }
}

/// Computes integer bounds `(lower, upper)` for `var` implied by the
/// system, eliminating every other variable first. `None` means
/// unbounded in that direction. Returns `None` overall when the system's
/// rational relaxation is empty.
pub fn var_bounds(system: &ConstraintSystem, var: &Var) -> Option<(Option<i64>, Option<i64>)> {
    let mut sys = simplify(system.clone());
    loop {
        let others: Vec<Var> = sys.vars().into_iter().filter(|v| v != var).collect();
        match others.first() {
            None => break,
            Some(v) => {
                let v = v.clone();
                sys = eliminate(&sys, &v);
            }
        }
    }
    if sys
        .constraints()
        .iter()
        .any(|c| c.as_trivial() == Some(false))
    {
        return None;
    }

    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    for c in sys.constraints() {
        let a = c.expr().coeff(var.clone());
        if a == 0 {
            continue;
        }
        let d = c.expr().constant_part();
        match c.kind() {
            ConstraintKind::GeZero => {
                // Normalization guarantees a == ±1 for single-variable
                // constraints, with the constant already integer-tightened.
                debug_assert!(a == 1 || a == -1);
                if a > 0 {
                    // x + d >= 0  =>  x >= -d
                    lo = Some(lo.map_or(-d, |l: i64| l.max(-d)));
                } else {
                    // -x + d >= 0  =>  x <= d
                    hi = Some(hi.map_or(d, |h: i64| h.min(d)));
                }
            }
            ConstraintKind::EqZero => {
                if d % a == 0 {
                    let x = -d / a;
                    lo = Some(lo.map_or(x, |l: i64| l.max(x)));
                    hi = Some(hi.map_or(x, |h: i64| h.min(x)));
                } else {
                    return None; // no integer solution
                }
            }
        }
    }
    if let (Some(l), Some(h)) = (lo, hi) {
        if l > h {
            return None;
        }
    }
    Some((lo, hi))
}

/// Integer bounding box `(lo, hi)` of `dims` under `system`, one
/// [`var_bounds`] projection per dimension, in order.
///
/// # Errors
///
/// Returns [`Error::Unbounded`] for the first dimension (in order)
/// without a finite bound on both sides, unless a projection before it
/// proved the system empty: that yields `Ok` with the marker box
/// `(0, -1)` in every dimension.
pub fn bounding_box(system: &ConstraintSystem, dims: &[Var]) -> Result<Vec<(i64, i64)>> {
    let mut out = Vec::with_capacity(dims.len());
    for d in dims {
        match var_bounds(system, d) {
            None => return Ok(vec![(0, -1); dims.len()]),
            Some((Some(lo), Some(hi))) => out.push((lo, hi)),
            Some(_) => return Err(Error::Unbounded(d.name().to_owned())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    fn range_sys(var: &str, lo: i64, hi_excl: i64) -> Vec<Constraint> {
        vec![
            Constraint::ge(AffineExpr::var(var), AffineExpr::constant(lo)),
            Constraint::lt(AffineExpr::var(var), AffineExpr::constant(hi_excl)),
        ]
    }

    #[test]
    fn eliminate_simple_chain() {
        // 0 <= x <= y <= 7 ; eliminating x leaves 0 <= y <= 7 reachable.
        let sys: ConstraintSystem = [
            Constraint::ge(AffineExpr::var("x"), AffineExpr::constant(0)),
            Constraint::le(AffineExpr::var("x"), AffineExpr::var("y")),
            Constraint::le(AffineExpr::var("y"), AffineExpr::constant(7)),
        ]
        .into_iter()
        .collect();
        let p = eliminate(&sys, &v("x"));
        let (lo, hi) = var_bounds(&p, &v("y")).unwrap();
        assert_eq!(lo, Some(0));
        assert_eq!(hi, Some(7));
    }

    #[test]
    fn eliminate_via_equality_substitution() {
        // j == i + 2 && 0 <= i < 5  ; eliminating i gives 2 <= j < 7.
        let sys: ConstraintSystem = range_sys("i", 0, 5)
            .into_iter()
            .chain([Constraint::eq(
                AffineExpr::var("j"),
                AffineExpr::var("i") + AffineExpr::constant(2),
            )])
            .collect();
        let p = eliminate(&sys, &v("i"));
        let (lo, hi) = var_bounds(&p, &v("j")).unwrap();
        assert_eq!((lo, hi), (Some(2), Some(6)));
    }

    #[test]
    fn empty_detection() {
        let sys: ConstraintSystem = [
            Constraint::ge(AffineExpr::var("x"), AffineExpr::constant(5)),
            Constraint::le(AffineExpr::var("x"), AffineExpr::constant(3)),
        ]
        .into_iter()
        .collect();
        assert!(is_empty_rational(&sys));
        assert_eq!(var_bounds(&sys, &v("x")), None);
    }

    #[test]
    fn nonempty_box() {
        let sys: ConstraintSystem = range_sys("a", 0, 8)
            .into_iter()
            .chain(range_sys("b", 0, 3000))
            .collect();
        assert!(!is_empty_rational(&sys));
        assert_eq!(var_bounds(&sys, &v("a")).unwrap(), (Some(0), Some(7)));
        assert_eq!(var_bounds(&sys, &v("b")).unwrap(), (Some(0), Some(2999)));
    }

    #[test]
    fn unbounded_direction_reported_as_none() {
        let sys: ConstraintSystem = [Constraint::ge(
            AffineExpr::var("x"),
            AffineExpr::constant(3),
        )]
        .into_iter()
        .collect();
        assert_eq!(var_bounds(&sys, &v("x")).unwrap(), (Some(3), None));
    }

    #[test]
    fn rational_bound_tightened_to_integer() {
        // 3x >= 7 => x >= 3 over the integers (rationally x >= 7/3).
        let sys: ConstraintSystem = [Constraint::ge(
            AffineExpr::term("x", 3),
            AffineExpr::constant(7),
        )]
        .into_iter()
        .collect();
        let (lo, _) = var_bounds(&sys, &v("x")).unwrap();
        assert_eq!(lo, Some(3));
    }

    #[test]
    fn equality_without_integer_solution() {
        // 2x == 5 has no integer solution. The equality survives
        // gcd-normalization (5 is odd), and var_bounds reports None.
        let sys: ConstraintSystem = [Constraint::eq(
            AffineExpr::term("x", 2),
            AffineExpr::constant(5),
        )]
        .into_iter()
        .collect();
        assert_eq!(var_bounds(&sys, &v("x")), None);
    }

    #[test]
    fn diagonal_projection() {
        // { (i, j) : 0 <= i < 4, j == i } projected on j is [0, 3].
        let sys: ConstraintSystem = range_sys("i", 0, 4)
            .into_iter()
            .chain([Constraint::eq(AffineExpr::var("j"), AffineExpr::var("i"))])
            .collect();
        let p = eliminate(&sys, &v("i"));
        assert_eq!(var_bounds(&p, &v("j")).unwrap(), (Some(0), Some(3)));
    }

    #[test]
    fn simplify_collapses_falsehood() {
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(
            AffineExpr::var("x"),
            AffineExpr::constant(0),
        ));
        sys.push(Constraint::unsatisfiable());
        let s = simplify(sys);
        assert_eq!(s.len(), 1);
        assert_eq!(s.constraints()[0].as_trivial(), Some(false));
    }
}
