//! Property-based tests: IndexSet algebra against a naive BTreeSet model,
//! closed-form images against brute-force enumeration, and closed-form
//! bounding boxes against Fourier–Motzkin projection.

use std::collections::BTreeSet;

use proptest::prelude::*;

use lams_presburger::{fm, AffineExpr, AffineMap, Constraint, Error, IndexSet, IterSpace};

/// A random box space: 1–4 dimensions, each declared bare (unbounded
/// until a constraint bounds it) or with a possibly empty range, plus
/// 0–8 extra single-variable `Ge`/`Eq` constraints with coefficients in
/// ±1..±3 (so equalities may have no integer solution) and the odd
/// trivially true or false constant constraint.
fn arb_box() -> impl Strategy<Value = IterSpace> {
    (
        prop::collection::vec((0u8..4, -6i64..6, 0i64..12), 1..5),
        prop::collection::vec((0u8..40, 0usize..4, 1i64..4, 0u8..2, -16i64..17), 0..9),
    )
        .prop_map(|(dims, extra)| {
            let name = |k: usize| format!("x{k}");
            let mut b = IterSpace::builder();
            for (k, &(kind, lo, len)) in dims.iter().enumerate() {
                b = match kind {
                    0 => b.dim(name(k)),
                    _ => b.dim_range(name(k), lo, lo + len),
                };
            }
            for (kind, k, mag, neg, c) in extra {
                let a = if neg == 1 { -mag } else { mag };
                let lhs = AffineExpr::term(name(k % dims.len()), a) + AffineExpr::constant(c);
                b = b.constraint(match kind {
                    0..=27 => Constraint::ge_zero(lhs),
                    28..=35 => Constraint::eq_zero(lhs),
                    36..=38 => Constraint::ge_zero(AffineExpr::constant(c.abs())),
                    _ => Constraint::eq_zero(AffineExpr::constant(c.abs() + 1)),
                });
            }
            b.build()
                .expect("every constraint names a declared dimension")
        })
}

/// The reference: one Fourier–Motzkin projection per dimension.
fn fm_bounding_box(space: &IterSpace) -> Result<Vec<(i64, i64)>, Error> {
    let mut out = Vec::new();
    for d in space.dims() {
        match fm::var_bounds(space.system(), d) {
            None => return Ok(vec![(0, -1); space.rank()]),
            Some((Some(lo), Some(hi))) => out.push((lo, hi)),
            Some(_) => return Err(Error::Unbounded(d.name().to_owned())),
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn closed_form_bounding_box_matches_fm(space in arb_box()) {
        prop_assert!(space.is_box());
        let reference = fm_bounding_box(&space);
        prop_assert_eq!(&space.bounding_box(), &reference, "space {}", space);
        prop_assert_eq!(&fm::bounding_box(space.system(), space.dims()), &reference);
    }
}

/// A small random IndexSet together with its reference model.
fn arb_set() -> impl Strategy<Value = (IndexSet, BTreeSet<i64>)> {
    prop::collection::vec((-200i64..200, 0i64..40), 0..12).prop_map(|ranges| {
        let mut s = IndexSet::new();
        let mut m = BTreeSet::new();
        for (start, len) in ranges {
            s.insert_range(start, start + len);
            m.extend(start..start + len);
        }
        (s, m)
    })
}

proptest! {
    #[test]
    fn canonical_form_invariants((s, m) in arb_set()) {
        // Sorted, disjoint, non-adjacent, non-empty runs.
        let runs = s.intervals();
        for w in runs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "runs must be disjoint and non-adjacent");
        }
        for r in runs {
            prop_assert!(r.start < r.end, "runs must be non-empty");
        }
        prop_assert_eq!(s.len(), m.len() as u64);
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn union_matches_model((a, ma) in arb_set(), (b, mb) in arb_set()) {
        let u = a.union(&b);
        let mu: BTreeSet<i64> = ma.union(&mb).copied().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), mu.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn intersect_matches_model((a, ma) in arb_set(), (b, mb) in arb_set()) {
        let i = a.intersect(&b);
        let mi: BTreeSet<i64> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), mi.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn difference_matches_model((a, ma) in arb_set(), (b, mb) in arb_set()) {
        let d = a.difference(&b);
        let md: BTreeSet<i64> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), md.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn algebra_laws((a, _) in arb_set(), (b, _) in arb_set(), (c, _) in arb_set()) {
        // Commutativity.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // Associativity of union.
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // Distribution: a ∩ (b ∪ c) = (a∩b) ∪ (a∩c).
        prop_assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
        // Inclusion–exclusion on cardinalities.
        prop_assert_eq!(
            a.union(&b).len() + a.intersect(&b).len(),
            a.len() + b.len()
        );
        // Difference partitions.
        prop_assert_eq!(a.difference(&b).len() + a.intersect(&b).len(), a.len());
    }

    #[test]
    fn contains_matches_model((a, ma) in arb_set(), probe in -250i64..250) {
        prop_assert_eq!(a.contains(probe), ma.contains(&probe));
    }

    #[test]
    fn coarsen_matches_model((a, ma) in arb_set(), k in 1i64..17) {
        let c = a.coarsen(k);
        let mc: BTreeSet<i64> = ma.iter().map(|x| x.div_euclid(k)).collect();
        prop_assert_eq!(c.iter().collect::<Vec<_>>(), mc.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn box_image_matches_bruteforce(
        lo1 in -5i64..5, n1 in 1i64..6,
        lo2 in -5i64..5, n2 in 1i64..6,
        c1 in -12i64..12, c2 in -12i64..12, c0 in -20i64..20,
    ) {
        let space = IterSpace::builder()
            .dim_range("i", lo1, lo1 + n1)
            .dim_range("j", lo2, lo2 + n2)
            .build().unwrap();
        let expr = AffineExpr::term("i", c1) + AffineExpr::term("j", c2)
            + AffineExpr::constant(c0);
        let map = AffineMap::new(vec![expr]);
        let img = space.image_1d(&map).unwrap();
        let mut brute = BTreeSet::new();
        for i in lo1..lo1 + n1 {
            for j in lo2..lo2 + n2 {
                brute.insert(c1 * i + c2 * j + c0);
            }
        }
        prop_assert_eq!(
            img.iter().collect::<Vec<_>>(),
            brute.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn count_matches_iter(
        n1 in 1i64..8, n2 in 1i64..8,
    ) {
        let space = IterSpace::builder()
            .dim_range("i", 0, n1)
            .dim_range("j", 0, n2)
            .build().unwrap();
        prop_assert_eq!(space.count().unwrap() as usize, space.iter().unwrap().count());
    }
}
