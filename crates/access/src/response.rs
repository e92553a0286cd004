//! Responses to accesses and the successor-configuration semantics.

use std::fmt;

use accrel_schema::{Configuration, Instance, Tuple};

use crate::access::Access;
use crate::error::AccessError;
use crate::method::AccessMethods;
use crate::Result;

/// The set of tuples returned by one access.
///
/// Responses are *sound*: every returned tuple must agree with the binding
/// on the method's input positions (and the caller is responsible for it
/// also belonging to the hidden instance). Responses are not assumed exact —
/// an empty response is always legal, and two accesses with the same binding
/// may return different subsets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Response {
    tuples: Vec<Tuple>,
}

impl Response {
    /// Creates a response from tuples.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        Self { tuples }
    }

    /// The empty response.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The returned tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of returned tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when nothing was returned.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Checks that every tuple has the relation's arity and agrees with the
    /// access binding on the method's input positions (soundness w.r.t. the
    /// binding, *not* w.r.t. any instance).
    pub fn validate(&self, access: &Access, methods: &AccessMethods) -> Result<()> {
        let m = methods.get(access.method())?;
        let arity = methods.schema().arity(m.relation())?;
        for t in &self.tuples {
            if t.arity() != arity {
                return Err(AccessError::InvalidResponse {
                    method: access.method(),
                    reason: format!("tuple {t} has arity {}, expected {arity}", t.arity()),
                });
            }
            if !t.matches_binding(m.input_positions(), access.binding().values()) {
                return Err(AccessError::InvalidResponse {
                    method: access.method(),
                    reason: format!("tuple {t} does not match binding {}", access.binding()),
                });
            }
        }
        Ok(())
    }

    /// Checks [`Response::validate`] and additionally that every tuple
    /// belongs to `instance` (full soundness).
    pub fn validate_against(
        &self,
        access: &Access,
        methods: &AccessMethods,
        instance: &Instance,
    ) -> Result<()> {
        self.validate(access, methods)?;
        let m = methods.get(access.method())?;
        for t in &self.tuples {
            if !instance.contains(m.relation(), t) {
                return Err(AccessError::InvalidResponse {
                    method: access.method(),
                    reason: format!("tuple {t} is not in the source instance"),
                });
            }
        }
        Ok(())
    }

    /// The *exact* response to `access` over `instance`: all matching tuples
    /// (`I(Bind, R)` in the paper).
    pub fn exact(access: &Access, methods: &AccessMethods, instance: &Instance) -> Result<Self> {
        let m = methods.get(access.method())?;
        Ok(Response::new(instance.matching(
            m.relation(),
            m.input_positions(),
            access.binding().values(),
        )))
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Response {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        Response::new(iter.into_iter().collect())
    }
}

/// Applies an access and its response to a configuration, producing the
/// successor configuration `Conf + (AcM, Bind, Resp)`.
///
/// Per Section 2 the successor configuration extends the accessed relation
/// with the returned tuples and leaves every other relation unchanged. The
/// access must be well-formed at `conf` and the response must match the
/// binding; both are checked.
///
/// With the copy-on-write sharded store the successor is an O(relations)
/// snapshot of `conf` that shares every shard's base with its predecessor
/// and appends the response to tails of its own. A write copies a tail
/// only where `conf`'s holds entries (what `conf` grew beyond the bases it
/// shares), never a base, so a step costs what the response adds plus at
/// most that growth, not the size of the configuration. The checks run on
/// that snapshot (same facts as `conf`), so a read recorder installed on
/// `conf` records none of them.
pub fn apply_access(
    conf: &Configuration,
    access: &Access,
    response: &Response,
    methods: &AccessMethods,
) -> Result<Configuration> {
    let mut next = conf.snapshot();
    apply_access_in_place(&mut next, access, response, methods)?;
    Ok(next)
}

/// The in-place variant of [`apply_access`]: grows `conf` itself instead of
/// producing a successor snapshot. The engine's run loop, which owns its
/// working configuration, commits each response this way; callers that need
/// the predecessor as well keep using [`apply_access`].
pub fn apply_access_in_place(
    conf: &mut Configuration,
    access: &Access,
    response: &Response,
    methods: &AccessMethods,
) -> Result<()> {
    access.well_formed(conf, methods)?;
    response.validate(access, methods)?;
    let m = methods.get(access.method())?;
    for t in response.tuples() {
        conf.insert(m.relation(), t.clone())
            .map_err(AccessError::from)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::binding;
    use crate::method::AccessMode;
    use accrel_schema::{tuple, Schema};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, AccessMethods, Instance) {
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let off = b.domain("OffId").unwrap();
        b.relation("EmpOff", &[("emp", emp), ("off", off)]).unwrap();
        b.relation("Seed", &[("emp", emp)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("EmpOffAcc", "EmpOff", &["emp"], AccessMode::Dependent)
            .unwrap();
        let methods = mb.build();
        let mut inst = Instance::new(schema.clone());
        inst.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        inst.insert_named("EmpOff", ["e1", "o2"]).unwrap();
        inst.insert_named("EmpOff", ["e2", "o3"]).unwrap();
        inst.insert_named("Seed", ["e1"]).unwrap();
        (schema, methods, inst)
    }

    #[test]
    fn exact_response_returns_all_matching_tuples() {
        let (_, methods, inst) = setup();
        let acm = methods.by_name("EmpOffAcc").unwrap();
        let access = Access::new(acm, binding(["e1"]));
        let resp = Response::exact(&access, &methods, &inst).unwrap();
        assert_eq!(resp.len(), 2);
        assert!(!resp.is_empty());
        assert!(resp.validate(&access, &methods).is_ok());
        assert!(resp.validate_against(&access, &methods, &inst).is_ok());
    }

    #[test]
    fn sound_subsets_are_valid_but_foreign_tuples_are_not() {
        let (_, methods, inst) = setup();
        let acm = methods.by_name("EmpOffAcc").unwrap();
        let access = Access::new(acm, binding(["e1"]));
        let partial = Response::new(vec![tuple(["e1", "o2"])]);
        assert!(partial.validate_against(&access, &methods, &inst).is_ok());
        // A tuple matching the binding but absent from the instance is
        // binding-valid yet not instance-sound.
        let invented = Response::new(vec![tuple(["e1", "o99"])]);
        assert!(invented.validate(&access, &methods).is_ok());
        assert!(invented.validate_against(&access, &methods, &inst).is_err());
        // A tuple with the wrong bound value is rejected outright.
        let mismatched = Response::new(vec![tuple(["e2", "o3"])]);
        assert!(mismatched.validate(&access, &methods).is_err());
        // Arity errors are rejected.
        let short = Response::new(vec![tuple(["e1"])]);
        assert!(short.validate(&access, &methods).is_err());
        // The empty response is always fine (sound, not exact).
        assert!(Response::empty().validate(&access, &methods).is_ok());
    }

    #[test]
    fn successor_configuration_semantics() {
        let (schema, methods, inst) = setup();
        let acm = methods.by_name("EmpOffAcc").unwrap();
        let access = Access::new(acm, binding(["e1"]));
        // e1 must first be known: seed the configuration through Seed.
        let mut conf = Configuration::empty(schema);
        conf.insert_named("Seed", ["e1"]).unwrap();
        let resp = Response::exact(&access, &methods, &inst).unwrap();
        let next = apply_access(&conf, &access, &resp, &methods).unwrap();
        assert_eq!(next.len(), 3);
        assert!(inst.is_consistent(&next));
        // Other relations unchanged, original facts retained.
        assert!(conf.is_subset_of(&next));
        // Not well-formed before seeding.
        let empty = Configuration::empty(inst.schema().clone());
        assert!(apply_access(&empty, &access, &resp, &methods).is_err());
    }

    #[test]
    fn in_place_apply_matches_snapshot_apply() {
        let (schema, methods, inst) = setup();
        let acm = methods.by_name("EmpOffAcc").unwrap();
        let access = Access::new(acm, binding(["e1"]));
        let mut conf = Configuration::empty(schema);
        conf.insert_named("Seed", ["e1"]).unwrap();
        let resp = Response::exact(&access, &methods, &inst).unwrap();
        let next = apply_access(&conf, &access, &resp, &methods).unwrap();
        // The snapshot variant leaves its input alone; the in-place one
        // reaches the same successor facts.
        let before = conf.sorted_facts();
        assert_ne!(next.sorted_facts(), before);
        apply_access_in_place(&mut conf, &access, &resp, &methods).unwrap();
        assert_eq!(conf.sorted_facts(), next.sorted_facts());
        // And the same validation errors as the snapshot variant.
        let empty_schema = inst.schema().clone();
        let mut empty = Configuration::empty(empty_schema);
        assert!(apply_access_in_place(&mut empty, &access, &resp, &methods).is_err());
    }

    #[test]
    fn apply_rejects_binding_mismatched_responses() {
        let (schema, methods, _) = setup();
        let acm = methods.by_name("EmpOffAcc").unwrap();
        let access = Access::new(acm, binding(["e1"]));
        let mut conf = Configuration::empty(schema);
        conf.insert_named("Seed", ["e1"]).unwrap();
        let bad = Response::new(vec![tuple(["e7", "o1"])]);
        assert!(apply_access(&conf, &access, &bad, &methods).is_err());
    }

    #[test]
    fn response_display_and_collect() {
        let resp: Response = vec![tuple(["a", "b"]), tuple(["c", "d"])]
            .into_iter()
            .collect();
        assert_eq!(resp.to_string(), "{(a, b), (c, d)}");
        assert_eq!(resp.tuples().len(), 2);
    }
}
