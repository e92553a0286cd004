//! Ready-made deep-Web scenarios.
//!
//! [`bank_scenario`] is the motivating example of Section 1 of the paper: a
//! bank's employee/office/approval data spread over four Web forms, a local
//! knowledge base of employee ids and states, and the Boolean query "is
//! there a loan officer in an Illinois office, and is the bank approved for
//! 30-year mortgages in Illinois?".

use std::sync::Arc;

use accrel_access::{AccessMethods, AccessMode};
use accrel_query::{ConjunctiveQuery, Query, Term};
use accrel_schema::{Configuration, Instance, Schema};

/// A self-contained deep-Web scenario: hidden data, access methods, an
/// initial configuration (the local knowledge base) and a query.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short identifier.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The schema shared by sources and query.
    pub schema: Arc<Schema>,
    /// The access methods (Web forms) available.
    pub methods: AccessMethods,
    /// The hidden source instance.
    pub instance: Instance,
    /// The query to answer.
    pub query: Query,
    /// The initial configuration (local knowledge).
    pub initial_configuration: Configuration,
    /// Whether the query is true in the hidden instance (ground truth).
    pub expected_answer: bool,
}

/// Builds the bank/loan scenario of Section 1.
///
/// The hidden data contains a chain the engine must follow: the locally
/// known employee `e-ada` is managed by `e-carol`, who is a loan officer in
/// an Illinois office; Illinois is approved for 30-year mortgages. The
/// relevant Web forms are exactly those of the paper: `EmpOffAcc`,
/// `EmpManAcc`, `OfficeInfoAcc` and `StateApprAcc`, all dependent.
pub fn bank_scenario() -> Scenario {
    let mut b = Schema::builder();
    let emp = b.domain("EmpId").unwrap();
    let text = b.domain("Text").unwrap();
    let off = b.domain("OffId").unwrap();
    let state = b.domain("State").unwrap();
    let offering = b.domain("Offering").unwrap();
    b.relation(
        "Employee",
        &[
            ("EmpId", emp),
            ("Title", text),
            ("LastName", text),
            ("FirstName", text),
            ("OffId", off),
        ],
    )
    .unwrap();
    b.relation(
        "Office",
        &[
            ("OffId", off),
            ("StreetAddress", text),
            ("State", state),
            ("Phone", text),
        ],
    )
    .unwrap();
    b.relation("Approval", &[("State", state), ("Offering", offering)])
        .unwrap();
    b.relation("Manager", &[("Mgr", emp), ("Sub", emp)])
        .unwrap();
    // Local knowledge base (fully accessible, no access methods needed):
    // employee ids the engine already knows about, and the states of
    // interest.
    b.relation("KnownEmployee", &[("EmpId", emp)]).unwrap();
    b.relation("KnownState", &[("State", state)]).unwrap();
    b.relation("KnownOffering", &[("Offering", offering)])
        .unwrap();
    let schema = b.build();

    let mut mb = AccessMethods::builder(schema.clone());
    mb.add("EmpOffAcc", "Employee", &["EmpId"], AccessMode::Dependent)
        .unwrap();
    mb.add("EmpManAcc", "Manager", &["Sub"], AccessMode::Dependent)
        .unwrap();
    mb.add("OfficeInfoAcc", "Office", &["OffId"], AccessMode::Dependent)
        .unwrap();
    mb.add(
        "StateApprAcc",
        "Approval",
        &["State"],
        AccessMode::Dependent,
    )
    .unwrap();
    let methods = mb.build();

    // Hidden instance.
    let mut instance = Instance::new(schema.clone());
    // Employees: ada (teller), bob (teller), carol (loan officer, Illinois).
    instance
        .insert_named(
            "Employee",
            ["e-ada", "teller", "Lovelace", "Ada", "off-100"],
        )
        .unwrap();
    instance
        .insert_named("Employee", ["e-bob", "teller", "Babbage", "Bob", "off-200"])
        .unwrap();
    instance
        .insert_named(
            "Employee",
            ["e-carol", "loan officer", "Hopper", "Carol", "off-300"],
        )
        .unwrap();
    instance
        .insert_named(
            "Employee",
            ["e-dan", "loan officer", "Knuth", "Dan", "off-400"],
        )
        .unwrap();
    // Offices.
    instance
        .insert_named("Office", ["off-100", "1 Main St", "Texas", "555-0100"])
        .unwrap();
    instance
        .insert_named("Office", ["off-200", "2 Oak Ave", "Texas", "555-0200"])
        .unwrap();
    instance
        .insert_named(
            "Office",
            ["off-300", "3 Lake Shore Dr", "Illinois", "555-0300"],
        )
        .unwrap();
    instance
        .insert_named("Office", ["off-400", "4 Elm Rd", "Ohio", "555-0400"])
        .unwrap();
    // Approvals.
    instance
        .insert_named("Approval", ["Illinois", "30yr"])
        .unwrap();
    instance
        .insert_named("Approval", ["Illinois", "15yr"])
        .unwrap();
    instance
        .insert_named("Approval", ["Texas", "15yr"])
        .unwrap();
    // Management chain: carol manages ada, dan manages bob.
    instance
        .insert_named("Manager", ["e-carol", "e-ada"])
        .unwrap();
    instance
        .insert_named("Manager", ["e-dan", "e-bob"])
        .unwrap();
    // Local knowledge (also part of the instance so the configuration is
    // consistent with it).
    instance.insert_named("KnownEmployee", ["e-ada"]).unwrap();
    instance.insert_named("KnownEmployee", ["e-bob"]).unwrap();
    instance.insert_named("KnownState", ["Illinois"]).unwrap();
    instance.insert_named("KnownState", ["Texas"]).unwrap();
    instance.insert_named("KnownOffering", ["30yr"]).unwrap();

    // Initial configuration: just the local knowledge.
    let mut initial = Configuration::empty(schema.clone());
    initial.insert_named("KnownEmployee", ["e-ada"]).unwrap();
    initial.insert_named("KnownEmployee", ["e-bob"]).unwrap();
    initial.insert_named("KnownState", ["Illinois"]).unwrap();
    initial.insert_named("KnownState", ["Texas"]).unwrap();
    initial.insert_named("KnownOffering", ["30yr"]).unwrap();

    // The Boolean query of Section 1.
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let e = qb.var("e");
    let ln = qb.var("ln");
    let fnm = qb.var("fn");
    let o = qb.var("o");
    let addr = qb.var("addr");
    let phone = qb.var("phone");
    qb.atom(
        "Employee",
        vec![
            Term::Var(e),
            Term::constant("loan officer"),
            Term::Var(ln),
            Term::Var(fnm),
            Term::Var(o),
        ],
    )
    .unwrap();
    qb.atom(
        "Office",
        vec![
            Term::Var(o),
            Term::Var(addr),
            Term::constant("Illinois"),
            Term::Var(phone),
        ],
    )
    .unwrap();
    qb.atom(
        "Approval",
        vec![Term::constant("Illinois"), Term::constant("30yr")],
    )
    .unwrap();
    let query: Query = qb.build().into();

    Scenario {
        name: "bank".to_string(),
        description: "Section 1 motivating example: loan officer in Illinois + 30yr approval"
            .to_string(),
        schema,
        methods,
        instance,
        query,
        initial_configuration: initial,
        expected_answer: true,
    }
}

/// A variant of the bank scenario in which the hidden data does **not**
/// satisfy the query (no loan officer works in an Illinois office), useful
/// for exercising engine termination without an answer.
pub fn bank_scenario_negative() -> Scenario {
    let mut scenario = bank_scenario();
    // Relocate carol's office to Ohio; the Illinois office keeps no loan
    // officer.
    let office = scenario.schema.relation_by_name("Office").unwrap();
    let old = accrel_schema::tuple(["off-300", "3 Lake Shore Dr", "Illinois", "555-0300"]);
    let new = accrel_schema::tuple(["off-300", "3 Lake Shore Dr", "Ohio", "555-0300"]);
    let mut instance = Instance::new(scenario.schema.clone());
    for (relation, t) in scenario.instance.facts() {
        let t = if relation == office && t == old {
            new.clone()
        } else {
            t
        };
        instance.insert(relation, t).unwrap();
    }
    scenario.instance = instance;
    scenario.name = "bank-negative".to_string();
    scenario.description =
        "Bank scenario variant where no loan officer sits in an Illinois office".to_string();
    scenario.expected_answer = false;
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_query::certain;

    #[test]
    fn bank_scenario_is_well_formed() {
        let s = bank_scenario();
        assert_eq!(s.schema.relation_count(), 7);
        assert_eq!(s.methods.len(), 4);
        assert!(s.query.validate().is_ok());
        assert!(s.query.is_boolean());
        assert!(s.instance.is_consistent(&s.initial_configuration));
        assert!(!certain::is_certain(&s.query, &s.initial_configuration));
        // The query is true on the full hidden data.
        assert!(certain::is_certain(
            &s.query,
            &s.instance.full_configuration()
        ));
        assert!(s.expected_answer);
        assert_eq!(s.name, "bank");
        assert!(!s.description.is_empty());
    }

    #[test]
    fn negative_variant_falsifies_the_query() {
        let s = bank_scenario_negative();
        assert!(!certain::is_certain(
            &s.query,
            &s.instance.full_configuration()
        ));
        assert!(s.instance.is_consistent(&s.initial_configuration));
        assert!(!s.expected_answer);
        assert_eq!(s.name, "bank-negative");
    }
}
