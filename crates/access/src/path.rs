//! Access paths, their application and the truncation operation.

use std::fmt;

use accrel_schema::Configuration;

use crate::access::Access;
use crate::method::AccessMethods;
use crate::response::{apply_access, Response};
use crate::Result;

/// One step of an access path: an access together with the response it
/// received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The access performed.
    pub access: Access,
    /// The response obtained.
    pub response: Response,
}

impl PathStep {
    /// Creates a step.
    pub fn new(access: Access, response: Response) -> Self {
        Self { access, response }
    }
}

/// A path from an initial configuration: a sequence of accesses with their
/// responses (`Conf1, (AcM1, Bind1), ..., Confn` in the paper, with the
/// intermediate configurations implied by the responses).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessPath {
    steps: Vec<PathStep>,
}

impl AccessPath {
    /// The empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// The steps of the path.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// Number of accesses in the path.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the path performs no access.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step.
    pub fn push(&mut self, access: Access, response: Response) {
        self.steps.push(PathStep::new(access, response));
    }

    /// Applies the path starting at `conf`, checking at every step that the
    /// access is well-formed at the current configuration and that the
    /// response matches the binding. Returns the final configuration.
    pub fn apply(&self, conf: &Configuration, methods: &AccessMethods) -> Result<Configuration> {
        let mut current = conf.clone();
        for step in &self.steps {
            current = apply_access(&current, &step.access, &step.response, methods)?;
        }
        Ok(current)
    }

    /// `true` when the path is well-formed starting from `conf`.
    pub fn is_well_formed_at(&self, conf: &Configuration, methods: &AccessMethods) -> bool {
        self.apply(conf, methods).is_ok()
    }

    /// The configurations visited along the path (including the initial
    /// one), assuming the path is well-formed; stops early otherwise.
    pub fn configurations(
        &self,
        conf: &Configuration,
        methods: &AccessMethods,
    ) -> Vec<Configuration> {
        let mut out = vec![conf.clone()];
        let mut current = conf.clone();
        for step in &self.steps {
            match apply_access(&current, &step.access, &step.response, methods) {
                Ok(next) => {
                    out.push(next.clone());
                    current = next;
                }
                Err(_) => break,
            }
        }
        out
    }

    /// The *truncated path* of `self` (Section 2): drop the initial access,
    /// then keep the longest prefix of the remaining steps such that each
    /// access stays well-formed when replayed from `conf` without the
    /// dropped step. Returns the truncated path together with the
    /// configuration it reaches from `conf`.
    pub fn truncate(
        &self,
        conf: &Configuration,
        methods: &AccessMethods,
    ) -> (AccessPath, Configuration) {
        let mut kept = AccessPath::new();
        let mut current = conf.clone();
        for step in self.steps.iter().skip(1) {
            match apply_access(&current, &step.access, &step.response, methods) {
                Ok(next) => {
                    kept.push(step.access.clone(), step.response.clone());
                    current = next;
                }
                Err(_) => break,
            }
        }
        (kept, current)
    }

    /// Pretty-prints the path with method and relation names.
    pub fn display_with(&self, methods: &AccessMethods) -> String {
        self.steps
            .iter()
            .map(|s| format!("{} -> {}", s.access.display_with(methods), s.response))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{} -> {}", s.access, s.response)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::binding;
    use crate::method::{AccessMethods, AccessMode};
    use accrel_schema::{tuple, Instance, Schema};
    use std::sync::Arc;

    /// Example 2.1 style setup: S and T with dependent access on T keyed by
    /// a value produced by S.
    fn setup() -> (Arc<Schema>, AccessMethods, Instance) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.relation("T", &[("a", d), ("b", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("SFree", "S", AccessMode::Independent).unwrap();
        mb.add("TDep", "T", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut inst = Instance::new(schema.clone());
        inst.insert_named("S", ["v"]).unwrap();
        inst.insert_named("T", ["v", "w"]).unwrap();
        (schema, methods, inst)
    }

    #[test]
    fn path_application_grows_the_configuration() {
        let (schema, methods, inst) = setup();
        let s_free = methods.by_name("SFree").unwrap();
        let t_dep = methods.by_name("TDep").unwrap();
        let conf = Configuration::empty(schema);
        let mut path = AccessPath::new();
        path.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["v"])]),
        );
        path.push(
            Access::new(t_dep, binding(["v"])),
            Response::new(vec![tuple(["v", "w"])]),
        );
        assert_eq!(path.len(), 2);
        assert!(!path.is_empty());
        let end = path.apply(&conf, &methods).unwrap();
        assert_eq!(end.len(), 2);
        assert!(inst.is_consistent(&end));
        assert!(path.is_well_formed_at(&conf, &methods));
        let confs = path.configurations(&conf, &methods);
        assert_eq!(confs.len(), 3);
        assert_eq!(confs[0].len(), 0);
        assert_eq!(confs[1].len(), 1);
        assert_eq!(confs[2].len(), 2);
    }

    #[test]
    fn dependent_access_fails_without_its_support() {
        let (schema, methods, _) = setup();
        let t_dep = methods.by_name("TDep").unwrap();
        let conf = Configuration::empty(schema);
        let mut path = AccessPath::new();
        path.push(
            Access::new(t_dep, binding(["v"])),
            Response::new(vec![tuple(["v", "w"])]),
        );
        // v has never been seen: the path is not well-formed.
        assert!(path.apply(&conf, &methods).is_err());
        assert!(!path.is_well_formed_at(&conf, &methods));
        assert_eq!(path.configurations(&conf, &methods).len(), 1);
    }

    #[test]
    fn truncation_cuts_steps_depending_on_the_first_access() {
        // The path accesses S (free) producing v, then T with input v.
        // Truncation removes the S access; the T access is then no longer
        // well-formed, so the truncated path is empty.
        let (schema, methods, _) = setup();
        let s_free = methods.by_name("SFree").unwrap();
        let t_dep = methods.by_name("TDep").unwrap();
        let conf = Configuration::empty(schema);
        let mut path = AccessPath::new();
        path.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["v"])]),
        );
        path.push(
            Access::new(t_dep, binding(["v"])),
            Response::new(vec![tuple(["v", "w"])]),
        );
        let (truncated, end) = path.truncate(&conf, &methods);
        assert!(truncated.is_empty());
        assert!(end.same_facts(&conf));
    }

    #[test]
    fn truncation_keeps_steps_that_do_not_depend_on_the_first_access() {
        // Both steps are free S accesses: removing the first one leaves the
        // second well-formed, so it survives truncation.
        let (schema, methods, _) = setup();
        let s_free = methods.by_name("SFree").unwrap();
        let conf = Configuration::empty(schema);
        let mut path = AccessPath::new();
        path.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["v"])]),
        );
        path.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["u"])]),
        );
        let (truncated, end) = path.truncate(&conf, &methods);
        assert_eq!(truncated.len(), 1);
        assert_eq!(end.len(), 1);
        assert!(end.all_values().contains(&accrel_schema::Value::sym("u")));
    }

    #[test]
    fn truncation_stops_at_first_ill_formed_step() {
        // Path: S produces v; T(v); S produces u. Truncation drops the
        // first step, then T(v) is ill-formed, so the trailing S access is
        // also discarded (truncation is a prefix).
        let (schema, methods, _) = setup();
        let s_free = methods.by_name("SFree").unwrap();
        let t_dep = methods.by_name("TDep").unwrap();
        let conf = Configuration::empty(schema);
        let mut path = AccessPath::new();
        path.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["v"])]),
        );
        path.push(
            Access::new(t_dep, binding(["v"])),
            Response::new(vec![tuple(["v", "w"])]),
        );
        path.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["u"])]),
        );
        let (truncated, end) = path.truncate(&conf, &methods);
        assert!(truncated.is_empty());
        assert_eq!(end.len(), 0);
    }

    #[test]
    fn push_and_display() {
        let (_, methods, _) = setup();
        let s_free = methods.by_name("SFree").unwrap();
        let mut extended = AccessPath::new();
        extended.push(
            Access::new(s_free, binding(Vec::<&str>::new())),
            Response::new(vec![tuple(["v"])]),
        );
        assert_eq!(extended.len(), 1);
        assert!(extended.to_string().contains("acm#0"));
        assert!(extended.display_with(&methods).contains("SFree"));
        assert_eq!(extended.steps()[0].response.len(), 1);
    }
}
