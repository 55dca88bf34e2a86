//! The seeded workload generator: one `--seed` fixes the LUBM data, the
//! template and constant of every parameterized read, and every write
//! batch (in the style of a benchmark `DataSource`: vertices, edges and
//! queries all drawn from one seed).

use eh_lubm::queries::{lubm_sparql_scaled, QUERY_NUMBERS};
use eh_lubm::{GeneratorConfig, UB};
use emptyheaded::Engine;

/// LUBM scale factor of every workload.
pub const UNIVERSITIES: u32 = 5;

/// Triples per writer batch on `serve-churn`: the batch the repository's
/// `updates` harness applies (`BATCH_TRIPLES` in `eh-bench`'s
/// `src/bin/updates.rs`).
pub const CHURN_BATCH: usize = 64;

/// Namespace of the writer's fresh (untyped) subjects.
const CHURN_NS: &str = "http://perfbench.example/churn/";

/// The generator profile for `seed`: the published UBA profile at
/// LUBM(5), except that every university gets the UBA mean of 20
/// departments. The department count is the profile's only knob that
/// moves whole-store size by tens of percent between seeds; fixing it
/// keeps the scale (and so every timing) comparable across seeds, while
/// everything below the department level still varies with the seed.
pub fn data_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig { depts_per_univ: (20, 20), ..GeneratorConfig::scale(UNIVERSITIES) }
        .with_seed(seed)
}

/// SplitMix64: a tiny, dependency-free, reproducible stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Where a template's constant is drawn from.
#[derive(Debug, Clone, Copy)]
enum Domain {
    /// Instances of a `ub:` class.
    Instances(&'static str),
    /// Distinct objects of a `ub:` predicate.
    Objects(&'static str),
}

/// A paper query whose one IRI constant becomes a parameter.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    /// LUBM query number.
    pub query: u32,
    /// The constant as it appears in the paper's query text.
    default: &'static str,
    domain: Domain,
}

const DEPT0: &str = "<http://www.Department0.University0.edu>";
const UNIV0: &str = "<http://www.University0.edu>";

/// The nine paper queries that contain a constant.
pub const TEMPLATES: [Template; 9] = [
    Template {
        query: 1,
        default: "<http://www.Department0.University0.edu/GraduateCourse0>",
        domain: Domain::Instances("GraduateCourse"),
    },
    Template {
        query: 3,
        default: "<http://www.Department0.University0.edu/AssistantProfessor0>",
        domain: Domain::Objects("publicationAuthor"),
    },
    Template { query: 4, default: DEPT0, domain: Domain::Instances("Department") },
    Template { query: 5, default: DEPT0, domain: Domain::Instances("Department") },
    Template {
        query: 7,
        default: "<http://www.Department0.University0.edu/AssociateProfessor0>",
        domain: Domain::Instances("AssociateProfessor"),
    },
    Template { query: 8, default: UNIV0, domain: Domain::Instances("University") },
    Template { query: 11, default: UNIV0, domain: Domain::Instances("University") },
    Template { query: 12, default: UNIV0, domain: Domain::Instances("University") },
    Template { query: 13, default: UNIV0, domain: Domain::Instances("University") },
];

/// One paper query as a single protocol line (no `QUERY ` verb).
pub fn paper_query_line(n: u32) -> String {
    flatten(&lubm_sparql_scaled(n, 0).expect("paper query"))
}

/// The twelve paper queries as protocol lines, in Table II order.
pub fn paper_query_lines() -> Vec<String> {
    QUERY_NUMBERS.iter().map(|&n| paper_query_line(n)).collect()
}

fn flatten(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

impl Template {
    /// The query text with `constant` (an `<iri>`) substituted.
    pub fn line(&self, constant: &str) -> String {
        let text = paper_query_line(self.query);
        assert!(text.contains(self.default), "Q{} lost its constant", self.query);
        text.replacen(self.default, constant, 1)
    }

    /// The template with the constant lifted into a trailing projected
    /// variable `?PB_C`: one query that answers every constant at once.
    pub fn lifted_line(&self) -> String {
        let text = self.line("?PB_C");
        let (head, body) = text.split_once(" WHERE ").expect("SELECT ... WHERE");
        format!("{head} ?PB_C WHERE {body}")
    }
}

fn domain_line(domain: Domain) -> String {
    match domain {
        Domain::Instances(class) => format!(
            "SELECT ?C WHERE {{ ?C <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{UB}{class}> }}"
        ),
        Domain::Objects(pred) => format!("SELECT ?C WHERE {{ ?S <{UB}{pred}> ?C }}"),
    }
}

/// Every template's constant domain, read from the generated store, plus
/// the courses the churn writer points its fresh triples at. Sorted, so
/// the draws depend on the seed only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domains {
    /// `per_template[t]`: the `<iri>` constants of `TEMPLATES[t]`.
    pub per_template: Vec<Vec<String>>,
    /// Existing `ub:Course` instances.
    pub courses: Vec<String>,
}

fn column(engine: &Engine, line: &str) -> Vec<String> {
    let result = engine.run_sparql(line).expect("domain query runs");
    let store = engine.store();
    let mut out: Vec<String> =
        (0..result.cardinality()).map(|i| result.decode_row(&store, i)[0].to_string()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl Domains {
    pub fn read(engine: &Engine) -> Domains {
        let per_template =
            TEMPLATES.iter().map(|t| column(engine, &domain_line(t.domain))).collect();
        let courses = column(engine, &domain_line(Domain::Instances("Course")));
        Domains { per_template, courses }
    }

    /// One line per template: query number and domain size.
    pub fn describe(&self) -> String {
        TEMPLATES
            .iter()
            .zip(&self.per_template)
            .map(|(t, d)| format!("Q{}={}", t.query, d.len()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One `serve-param` read: indices into [`TEMPLATES`] and its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamRead {
    pub template: usize,
    pub constant: usize,
}

/// The read stream of one `serve-param` session: template uniform,
/// constant uniform with replacement from the template's domain.
#[derive(Debug, Clone)]
pub struct ParamStream<'d> {
    rng: Rng,
    domains: &'d Domains,
}

impl<'d> ParamStream<'d> {
    pub fn new(seed: u64, session: u64, domains: &'d Domains) -> ParamStream<'d> {
        ParamStream { rng: Rng::new(seed, 1 + session), domains }
    }
}

impl Iterator for ParamStream<'_> {
    type Item = ParamRead;

    fn next(&mut self) -> Option<ParamRead> {
        let template = self.rng.below(TEMPLATES.len());
        let constant = self.rng.below(self.domains.per_template[template].len());
        Some(ParamRead { template, constant })
    }
}

impl ParamRead {
    pub fn line(&self, domains: &Domains) -> String {
        TEMPLATES[self.template].line(&domains.per_template[self.template][self.constant])
    }
}

/// The N-Triples lines of writer batch `round`: fresh untyped subjects
/// taking existing courses. No paper query can see them (every query
/// types the subject of `takesCourse`), so no answer changes.
pub fn churn_batch(seed: u64, round: u64, domains: &Domains) -> Vec<String> {
    let mut rng = Rng::new(seed, 1 << 32 | round);
    (0..CHURN_BATCH)
        .map(|i| {
            let course = &domains.courses[rng.below(domains.courses.len())];
            format!("<{CHURN_NS}r{round}s{i}> <{UB}takesCourse> {course} .")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_lubm::generate_store;
    use emptyheaded::OptFlags;

    fn tiny(seed: u64) -> (Engine, Domains) {
        let engine =
            Engine::new(generate_store(&GeneratorConfig::tiny(2).with_seed(seed)), OptFlags::all());
        let domains = Domains::read(&engine);
        (engine, domains)
    }

    fn ops(seed: u64, domains: &Domains) -> (Vec<ParamRead>, Vec<Vec<String>>) {
        let reads = ParamStream::new(seed, 0, domains).take(500).collect();
        let writes = (0..20).map(|r| churn_batch(seed, r, domains)).collect();
        (reads, writes)
    }

    #[test]
    fn same_seed_gives_identical_op_sequence() {
        let (_, d1) = tiny(7);
        let (_, d2) = tiny(7);
        assert_eq!(d1, d2);
        assert_eq!(ops(7, &d1), ops(7, &d2));
    }

    #[test]
    fn different_seed_gives_different_sequence() {
        let (_, d1) = tiny(7);
        let (_, d2) = tiny(8);
        assert_ne!(ops(7, &d1), ops(8, &d2));
        // The op draws differ even over identical data.
        assert_ne!(ops(7, &d1).0, ops(8, &d1).0);
        assert_ne!(ParamStream::new(7, 0, &d1).take(50).collect::<Vec<_>>(), {
            ParamStream::new(7, 1, &d1).take(50).collect::<Vec<_>>()
        });
    }

    #[test]
    fn every_drawn_constant_resolves_in_the_store() {
        let (engine, domains) = tiny(7);
        assert!(domains.per_template.iter().all(|d| !d.is_empty()));
        let store = engine.store();
        let resolves = |term: &str| {
            let iri = term.strip_prefix('<').and_then(|t| t.strip_suffix('>')).expect("an IRI");
            store.resolve_iri(iri).is_some()
        };
        let (reads, writes) = ops(7, &domains);
        for r in reads {
            assert!(resolves(&domains.per_template[r.template][r.constant]));
            let line = r.line(&domains);
            assert!(engine.run_sparql(&line).is_ok(), "{line}");
        }
        for line in writes.iter().flatten() {
            let course = line.split(' ').nth(2).expect("object");
            assert!(resolves(course), "{line}");
        }
    }

    #[test]
    fn lifted_template_rows_group_into_each_constants_answer() {
        let (engine, domains) = tiny(7);
        let store = engine.store();
        let rows = |line: &str, drop_last: bool| -> Vec<(String, String)> {
            let result = engine.run_sparql(line).expect("query runs");
            let keep = result.columns().len() - usize::from(drop_last);
            let mut out: Vec<(String, String)> = (0..result.cardinality())
                .map(|i| {
                    let row = result.decode_row(&store, i);
                    let text: Vec<String> = row[..keep].iter().map(|t| t.to_string()).collect();
                    let key = if drop_last { row[keep].to_string() } else { String::new() };
                    (key, text.join("\t"))
                })
                .collect();
            out.sort();
            out
        };
        for (t, template) in TEMPLATES.iter().enumerate() {
            let lifted = rows(&template.lifted_line(), true);
            for constant in domains.per_template[t].iter().take(5) {
                let direct: Vec<String> =
                    rows(&template.line(constant), false).into_iter().map(|r| r.1).collect();
                let grouped: Vec<String> =
                    lifted.iter().filter(|r| &r.0 == constant).map(|r| r.1.clone()).collect();
                assert_eq!(direct, grouped, "Q{} with {constant}", template.query);
            }
        }
    }
}
