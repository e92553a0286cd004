//! Concrete accesses: an access method plus a binding for its inputs.

use std::fmt;

use accrel_schema::{Configuration, Value};

use crate::error::AccessError;
use crate::method::{AccessMethodId, AccessMethods, AccessMode};
use crate::Result;

/// A binding of values for the input attributes of an access method, in the
/// method's input-position order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Binding(Vec<Value>);

impl Binding {
    /// Creates a binding from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self(values)
    }

    /// The empty binding (for free accesses).
    pub fn empty() -> Self {
        Self(Vec::new())
    }

    /// The bound values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of bound values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the binding has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at binding position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl<V: Into<Value>> FromIterator<V> for Binding {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Binding(iter.into_iter().map(Into::into).collect())
    }
}

/// Builds a binding from anything convertible to values.
pub fn binding<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Binding {
    values.into_iter().collect()
}

/// An access: an access method applied to a concrete binding, e.g.
/// `R(3, ?)` — "call the method on `R` with the first place bound to 3".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Access {
    method: AccessMethodId,
    binding: Binding,
}

impl Access {
    /// Creates an access from a method id and a binding.
    pub fn new(method: AccessMethodId, binding: Binding) -> Self {
        Self { method, binding }
    }

    /// The access method.
    pub fn method(&self) -> AccessMethodId {
        self.method
    }

    /// The binding for the method's input attributes.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Checks the binding's arity against the method's input attributes.
    pub fn check_arity(&self, methods: &AccessMethods) -> Result<()> {
        let m = methods.get(self.method)?;
        if m.input_positions().len() != self.binding.len() {
            return Err(AccessError::BindingArityMismatch {
                method: self.method,
                expected: m.input_positions().len(),
                actual: self.binding.len(),
            });
        }
        Ok(())
    }

    /// Is this access *well-formed* at `conf`?
    ///
    /// Per Section 2: every access whose method is independent is
    /// well-formed (provided the binding has the right arity); a dependent
    /// access requires every bound value, paired with the abstract domain of
    /// the corresponding input attribute, to belong to `Adom(conf)`.
    pub fn is_well_formed(&self, conf: &Configuration, methods: &AccessMethods) -> bool {
        self.well_formed(conf, methods).is_ok()
    }

    /// Like [`Access::is_well_formed`] but explains failures.
    pub fn well_formed(&self, conf: &Configuration, methods: &AccessMethods) -> Result<()> {
        self.check_arity(methods)?;
        let m = methods.get(self.method)?;
        if m.mode() == AccessMode::Independent {
            return Ok(());
        }
        let schema = methods.schema();
        for (i, &pos) in m.input_positions().iter().enumerate() {
            let value = self.binding.get(i).expect("arity checked above").clone();
            let domain = schema.domain_of(m.relation(), pos)?;
            if !conf.adom_contains(&value, domain) {
                return Err(AccessError::NotWellFormed {
                    method: self.method,
                    reason: format!(
                        "value {value} (domain {domain}) is not in the configuration's active domain"
                    ),
                });
            }
        }
        Ok(())
    }

    /// A deterministic 64-bit hash of the access (method id + binding
    /// values), stable across processes, runs and call orders.
    ///
    /// This is the seed material for everything that must behave
    /// deterministically *per access* regardless of execution order: the
    /// federation backends' latency jitter and flakiness windows, and the
    /// engine's hash-seeded sound-sampling response policy. It deliberately
    /// does not use `std::hash::Hasher` (whose output is not guaranteed
    /// stable across releases).
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the method id and the rendered binding values, with a
        // rotation between values so permuted bindings hash apart. The
        // values render straight into the hash, with no string built.
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325u64 ^ u64::from(self.method.0));
        for v in self.binding.values() {
            fmt::write(&mut h, format_args!("{v}")).expect("hashing cannot fail");
            h.0 = h.0.rotate_left(7);
        }
        h.0
    }

    /// [`Access::stable_hash`] mixed with `salt` and finalized with
    /// SplitMix64 — the shared recipe for deriving decorrelated per-access
    /// streams (latency jitter per trip, flakiness windows, sampling RNG
    /// seeds) from one access.
    pub fn stable_hash_seeded(&self, salt: u64) -> u64 {
        let mut z = (self.stable_hash() ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Pretty-prints the access using method and relation names, e.g.
    /// `EmpOffAcc: Employee(12345, ?, ?, ?, ?)`.
    pub fn display_with(&self, methods: &AccessMethods) -> String {
        let Ok(m) = methods.get(self.method) else {
            return format!("{}{}", self.method, self.binding);
        };
        let schema = methods.schema();
        let Ok(rel) = schema.relation(m.relation()) else {
            return format!("{}{}", m.name(), self.binding);
        };
        let mut slots: Vec<String> = vec!["?".to_string(); rel.arity()];
        for (i, &pos) in m.input_positions().iter().enumerate() {
            if let Some(v) = self.binding.get(i) {
                slots[pos] = v.to_string();
            }
        }
        format!("{}: {}({})", m.name(), rel.name(), slots.join(", "))
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.method, self.binding)
    }
}

/// An FNV-1a state that hashes the bytes written to it.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_schema::{Configuration, Schema};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, AccessMethods) {
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let off = b.domain("OffId").unwrap();
        b.relation("EmpOff", &[("emp", emp), ("off", off)]).unwrap();
        b.relation("Mgr", &[("mgr", emp), ("sub", emp)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("EmpOffAcc", "EmpOff", &["emp"], AccessMode::Dependent)
            .unwrap();
        mb.add("MgrFree", "Mgr", &["mgr"], AccessMode::Independent)
            .unwrap();
        (schema, mb.build())
    }

    #[test]
    fn binding_basics() {
        let b = binding(["a", "b"]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.get(0), Some(&Value::sym("a")));
        assert_eq!(b.get(9), None);
        assert_eq!(b.to_string(), "[a, b]");
        assert!(Binding::empty().is_empty());
        assert_eq!(Binding::new(vec![Value::int(1)]).values(), &[Value::int(1)]);
    }

    #[test]
    fn dependent_access_requires_adom_membership() {
        let (schema, methods) = setup();
        let emp_off = methods.by_name("EmpOffAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        let access = Access::new(emp_off, binding(["e1"]));
        // e1 not known yet: not well-formed.
        assert!(!access.is_well_formed(&conf, &methods));
        conf.insert_named("Mgr", ["e1", "e2"]).unwrap();
        // e1 now appears in an EmpId position: well-formed.
        assert!(access.is_well_formed(&conf, &methods));
        assert!(access.well_formed(&conf, &methods).is_ok());
    }

    #[test]
    fn domain_mismatch_blocks_dependent_access() {
        let (schema, methods) = setup();
        let emp_off = methods.by_name("EmpOffAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        // o1 appears only as an OffId, so it cannot be used as an EmpId
        // input even though the constant is in the configuration.
        conf.insert_named("EmpOff", ["e9", "o1"]).unwrap();
        let access = Access::new(emp_off, binding(["o1"]));
        assert!(!access.is_well_formed(&conf, &methods));
        match access.well_formed(&conf, &methods) {
            Err(AccessError::NotWellFormed { reason, .. }) => {
                assert!(reason.contains("o1"));
            }
            other => panic!("expected NotWellFormed, got {other:?}"),
        }
    }

    #[test]
    fn independent_access_is_always_well_formed() {
        let (schema, methods) = setup();
        let mgr = methods.by_name("MgrFree").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(mgr, binding(["anybody"]));
        assert!(access.is_well_formed(&conf, &methods));
    }

    #[test]
    fn arity_mismatch_is_detected() {
        let (schema, methods) = setup();
        let emp_off = methods.by_name("EmpOffAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(emp_off, binding(["a", "b"]));
        assert!(matches!(
            access.well_formed(&conf, &methods),
            Err(AccessError::BindingArityMismatch { .. })
        ));
        assert!(access.check_arity(&methods).is_err());
        let ok = Access::new(emp_off, binding(["a"]));
        assert!(ok.check_arity(&methods).is_ok());
    }

    #[test]
    fn stable_hash_distinguishes_methods_and_bindings() {
        let (_, methods) = setup();
        let emp_off = methods.by_name("EmpOffAcc").unwrap();
        let mgr = methods.by_name("MgrFree").unwrap();
        let a = Access::new(emp_off, binding(["e1"]));
        // Equal accesses hash equal; the hash is a pure function.
        assert_eq!(
            a.stable_hash(),
            Access::new(emp_off, binding(["e1"])).stable_hash()
        );
        // Different method, binding value, or binding order hash apart.
        assert_ne!(
            a.stable_hash(),
            Access::new(mgr, binding(["e1"])).stable_hash()
        );
        assert_ne!(
            a.stable_hash(),
            Access::new(emp_off, binding(["e2"])).stable_hash()
        );
        assert_ne!(
            Access::new(emp_off, binding(["x", "y"])).stable_hash(),
            Access::new(emp_off, binding(["y", "x"])).stable_hash()
        );
    }

    /// The hash seeds latency jitter, flakiness windows and sampled
    /// responses, so its values are pinned: these are the outputs of the
    /// recipe that rendered each value into a `String` first.
    #[test]
    fn stable_hash_values_are_pinned() {
        let cases = [
            (
                Access::new(AccessMethodId(0), binding(["e1"])),
                0x473d_83da_9cdc_4184,
                0x19f0_72af_a090_3d32,
            ),
            (
                Access::new(AccessMethodId(3), Binding::new(vec![Value::int(-42)])),
                0xc06d_0bf5_fff9_2bfb,
                0xe927_297e_78e9_b2c9,
            ),
            (
                Access::new(AccessMethodId(1), Binding::new(vec![Value::fresh(7)])),
                0xeca8_6034_1653_9039,
                0x8cc9_51f3_4b97_026a,
            ),
            (
                Access::new(
                    AccessMethodId(2),
                    Binding::new(vec![
                        Value::sym("Illinois"),
                        Value::int(30),
                        Value::fresh(12),
                    ]),
                ),
                0xc788_f305_12c9_f723,
                0xed85_3fdc_d2f4_9974,
            ),
            (
                Access::new(AccessMethodId(5), Binding::empty()),
                0xcbf2_9ce4_8422_2320,
                0x6081_762e_b5b7_1358,
            ),
        ];
        for (access, hash, seeded) in cases {
            assert_eq!(access.stable_hash(), hash, "{access}");
            assert_eq!(access.stable_hash_seeded(7), seeded, "{access}");
        }
    }

    #[test]
    fn display_forms() {
        let (_, methods) = setup();
        let emp_off = methods.by_name("EmpOffAcc").unwrap();
        let access = Access::new(emp_off, binding(["12345"]));
        assert_eq!(access.display_with(&methods), "EmpOffAcc: EmpOff(12345, ?)");
        assert_eq!(access.to_string(), "acm#0[12345]");
        assert_eq!(access.method(), emp_off);
        assert_eq!(access.binding().len(), 1);
        // Unknown method falls back to raw display.
        let unknown = Access::new(AccessMethodId(9), binding(["x"]));
        assert!(unknown.display_with(&methods).contains("acm#9"));
    }
}
