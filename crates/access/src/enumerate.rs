//! Enumeration of the well-formed accesses available at a configuration.
//!
//! The federated engine and the exhaustive ("Li \[18\]"-style) baseline need
//! to enumerate candidate accesses. For dependent methods the candidate
//! bindings range over the configuration's active domain restricted to the
//! input attributes' abstract domains; for independent methods the value
//! space is infinite, so the enumerator draws from the active domain plus a
//! caller-supplied pool of extra guessable values.

use accrel_schema::{Configuration, Value};

use crate::access::{Access, Binding};
use crate::method::{AccessMethodId, AccessMethods, AccessMode};

/// Options controlling access enumeration.
#[derive(Debug, Clone)]
pub struct EnumerationOptions {
    /// Extra values that independent accesses may guess (beyond the active
    /// domain). Ignored for dependent methods.
    pub guessable_values: Vec<Value>,
    /// Upper bound on the number of accesses returned (safety valve against
    /// combinatorial explosion). `usize::MAX` means unlimited.
    pub max_accesses: usize,
}

impl Default for EnumerationOptions {
    fn default() -> Self {
        Self {
            guessable_values: Vec::new(),
            max_accesses: usize::MAX,
        }
    }
}

/// Enumerates every well-formed access at `conf`, under `options`.
///
/// Bindings are produced in a deterministic order (methods in registration
/// order, values in sorted order), so the exhaustive engine behaves
/// reproducibly.
pub fn well_formed_accesses(
    conf: &Configuration,
    methods: &AccessMethods,
    options: &EnumerationOptions,
) -> Vec<Access> {
    let mut out = Vec::new();
    for (id, _) in methods.iter() {
        if out.len() >= options.max_accesses {
            break;
        }
        enumerate_for_method(conf, methods, id, options, &mut out);
    }
    out.truncate(options.max_accesses);
    out
}

/// Enumerates the well-formed accesses of a single method at `conf`.
pub fn accesses_for_method(
    conf: &Configuration,
    methods: &AccessMethods,
    method: AccessMethodId,
    options: &EnumerationOptions,
) -> Vec<Access> {
    let mut out = Vec::new();
    enumerate_for_method(conf, methods, method, options, &mut out);
    out.truncate(options.max_accesses);
    out
}

/// Candidate values for each input position of `m` at `conf`: the active
/// domain restricted to the position's abstract domain, with the options'
/// guessable values merged in for independent methods; each list is sorted
/// and duplicate-free. `None` when a position's domain cannot be resolved.
/// A position may come back with an empty list, which yields no access.
fn per_position_values(
    conf: &Configuration,
    methods: &AccessMethods,
    m: &crate::method::AccessMethod,
    options: &EnumerationOptions,
) -> Option<Vec<Vec<Value>>> {
    let schema = methods.schema();
    let mut per_position: Vec<Vec<Value>> = Vec::with_capacity(m.input_positions().len());
    for &pos in m.input_positions() {
        let domain = schema.domain_of(m.relation(), pos).ok()?;
        let mut values = conf.values_of_domain(domain);
        if m.mode() == AccessMode::Independent {
            values.extend(options.guessable_values.iter().cloned());
            values.sort();
            values.dedup();
        }
        per_position.push(values);
    }
    Some(per_position)
}

/// Visits every index combination of lists with the given `lengths`, in
/// lexicographic (odometer) order; `visit` returns `false` to stop early.
/// Zero lengths yield no combination; an empty `lengths` slice yields the
/// single empty combination (free accesses).
///
/// Shared between [`well_formed_accesses`] and
/// [`crate::frontier::AccessFrontier`], which runs it over each of its
/// semi-naive blocks.
pub(crate) fn for_each_combination(lengths: &[usize], mut visit: impl FnMut(&[usize]) -> bool) {
    if lengths.contains(&0) {
        return;
    }
    let mut indices = vec![0usize; lengths.len()];
    loop {
        if !visit(&indices) {
            return;
        }
        let mut carry = true;
        for i in (0..indices.len()).rev() {
            if !carry {
                break;
            }
            indices[i] += 1;
            if indices[i] < lengths[i] {
                carry = false;
            } else {
                indices[i] = 0;
            }
        }
        if carry {
            return;
        }
    }
}

fn enumerate_for_method(
    conf: &Configuration,
    methods: &AccessMethods,
    id: AccessMethodId,
    options: &EnumerationOptions,
    out: &mut Vec<Access>,
) {
    let Ok(m) = methods.get(id) else {
        return;
    };
    let Some(per_position) = per_position_values(conf, methods, m, options) else {
        return;
    };
    // Cartesian product of the candidate values; a position with no
    // candidate value yields no access (free accesses have no positions and
    // yield exactly one).
    let lengths: Vec<usize> = per_position.iter().map(Vec::len).collect();
    for_each_combination(&lengths, |indices| {
        if out.len() >= options.max_accesses {
            return false;
        }
        let binding: Binding = indices
            .iter()
            .enumerate()
            .map(|(i, &j)| per_position[i][j].clone())
            .collect::<Vec<Value>>()
            .into_iter()
            .collect();
        out.push(Access::new(id, binding));
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::binding;
    use crate::method::AccessMode;
    use accrel_schema::Schema;
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, AccessMethods) {
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let off = b.domain("OffId").unwrap();
        b.relation("EmpOff", &[("emp", emp), ("off", off)]).unwrap();
        b.relation("Office", &[("off", off), ("emp", emp)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("EmpOffAcc", "EmpOff", &["emp"], AccessMode::Dependent)
            .unwrap();
        mb.add(
            "OfficePair",
            "Office",
            &["off", "emp"],
            AccessMode::Dependent,
        )
        .unwrap();
        mb.add_free("EmpOffAll", "EmpOff", AccessMode::Independent)
            .unwrap();
        (schema, mb.build())
    }

    #[test]
    fn empty_configuration_only_allows_free_accesses() {
        let (schema, methods) = setup();
        let conf = Configuration::empty(schema);
        let accesses = well_formed_accesses(&conf, &methods, &EnumerationOptions::default());
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].method(), methods.by_name("EmpOffAll").unwrap());
        assert!(accesses[0].binding().is_empty());
    }

    #[test]
    fn dependent_bindings_range_over_the_active_domain() {
        let (schema, methods) = setup();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        conf.insert_named("EmpOff", ["e2", "o1"]).unwrap();
        let accesses = well_formed_accesses(&conf, &methods, &EnumerationOptions::default());
        // EmpOffAcc: bindings e1, e2.  OfficePair: (o1,e1), (o1,e2).  Free: 1.
        assert_eq!(accesses.len(), 2 + 2 + 1);
        let emp_acc = methods.by_name("EmpOffAcc").unwrap();
        let emp_accesses: Vec<_> = accesses.iter().filter(|a| a.method() == emp_acc).collect();
        assert_eq!(emp_accesses.len(), 2);
        assert!(emp_accesses.contains(&&Access::new(emp_acc, binding(["e1"]))));
        for a in &accesses {
            assert!(a.is_well_formed(&conf, &methods));
        }
    }

    #[test]
    fn per_method_enumeration_and_guessable_values() {
        let (schema, methods) = setup();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        let emp_acc = methods.by_name("EmpOffAcc").unwrap();
        // One pool value is also in the active domain, and one repeats.
        let opts = EnumerationOptions {
            guessable_values: vec![
                Value::sym("guessed"),
                Value::sym("e1"),
                Value::sym("guessed"),
            ],
            max_accesses: usize::MAX,
        };
        // Guessable values do not apply to dependent methods.
        let dep = accesses_for_method(&conf, &methods, emp_acc, &opts);
        assert_eq!(dep.len(), 1);
        // The free method has no inputs, so it yields exactly one access.
        let free = methods.by_name("EmpOffAll").unwrap();
        let free_accesses = accesses_for_method(&conf, &methods, free, &opts);
        assert_eq!(free_accesses.len(), 1);
        // An independent method with an input sees the active domain and the
        // pool merged: sorted, each value once.
        let mut mb = AccessMethods::builder(schema);
        mb.add("EmpGuess", "EmpOff", &["emp"], AccessMode::Independent)
            .unwrap();
        let guessing = mb.build();
        let guess = guessing.by_name("EmpGuess").unwrap();
        assert_eq!(
            accesses_for_method(&conf, &guessing, guess, &opts),
            vec![
                Access::new(guess, binding(["e1"])),
                Access::new(guess, binding(["guessed"])),
            ]
        );
    }

    #[test]
    fn max_accesses_caps_enumeration() {
        let (schema, methods) = setup();
        let mut conf = Configuration::empty(schema);
        for i in 0..10 {
            conf.insert_named("EmpOff", [format!("e{i}"), "o1".to_string()])
                .unwrap();
        }
        let opts = EnumerationOptions {
            guessable_values: Vec::new(),
            max_accesses: 3,
        };
        let accesses = well_formed_accesses(&conf, &methods, &opts);
        assert_eq!(accesses.len(), 3);
    }

    #[test]
    fn unknown_method_id_is_skipped() {
        let (schema, methods) = setup();
        let conf = Configuration::empty(schema);
        let none = accesses_for_method(
            &conf,
            &methods,
            AccessMethodId(99),
            &EnumerationOptions::default(),
        );
        assert!(none.is_empty());
    }
}
